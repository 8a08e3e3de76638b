package synth

import (
	"context"
	"fmt"
	"maps"
	"math/big"
	"slices"

	"cnfetdk/internal/logic"
)

// VerifyNodeBudget bounds the BDD of one Verify proof: 1<<17 nodes, at
// most 6 MiB of tables (rca32, with 65 inputs, proves in 15,652).
const VerifyNodeBudget = 1 << 17

// cellFunc is a cell's pull-down function, its variables and its table.
type cellFunc struct {
	expr  *logic.Expr
	pins  []string
	table *logic.Table
}

// cellFuncs maps library cell base names to their pull-down functions
// (the output is the complement), parsed once; it is read-only.
var cellFuncs = func() map[string]*cellFunc {
	m := map[string]*cellFunc{}
	for base, f := range map[string]string{
		"INV":   "A",
		"NAND2": "AB",
		"NAND3": "ABC",
		"NOR2":  "A+B",
		"NOR3":  "A+B+C",
		"AOI21": "AB+C",
		"AOI22": "AB+CD",
		"AOI31": "ABC+D",
		"OAI21": "(A+B)C",
		"OAI22": "(A+B)(C+D)",
	} {
		e := logic.MustParse(f)
		m[base] = &cellFunc{expr: e, pins: e.Vars(), table: logic.TableOf(e, e.Vars())}
	}
	return m
}()

// gate is one instance compiled for evaluation: its cell function and
// the net index bound to each of the function's pins.
type gate struct {
	fn   *cellFunc
	pins []int32
	out  int32
}

// evaluator is a netlist compiled for evaluation: nets are numbered
// (primary inputs first), and instances are ordered so every gate's
// inputs are computed before it. The order is the one the fixed-point
// evaluation the netlist semantics define would discover: readiness
// depends only on which nets have values, never on the values, so it is
// computed once. An instance whose output already has a value (an
// input, or an earlier driver) never evaluates.
type evaluator struct {
	nets  map[string]int32
	names []string // by net
	inNet []int32  // net of each primary input, in Inputs order
	gates []gate
	vals  []bool // per-net values of the latest run
}

func (n *Netlist) compile() (*evaluator, error) {
	ev := &evaluator{nets: map[string]int32{}}
	net := func(name string) int32 {
		i, ok := ev.nets[name]
		if !ok {
			i = int32(len(ev.nets))
			ev.nets[name] = i
			ev.names = append(ev.names, name)
		}
		return i
	}
	// A net is numbered once it has a value (an input or a gate output).
	known := func(name string) bool { _, ok := ev.nets[name]; return ok }
	for _, in := range n.Inputs {
		ev.inNet = append(ev.inNet, net(in))
	}
	done := make([]bool, len(n.Instances))
	for {
		progress, pending := false, false
		for i, inst := range n.Instances {
			if done[i] {
				continue
			}
			out := inst.Conns["OUT"]
			if known(out) {
				done[i] = true
				continue
			}
			fn, ok := cellFuncs[baseName(inst.Cell)]
			if !ok {
				return nil, fmt.Errorf("synth: unknown cell %q", inst.Cell)
			}
			ready := true
			for _, v := range fn.pins {
				pin, ok := inst.Conns[v]
				if !ok {
					return nil, fmt.Errorf("synth: %s: pin %s unbound", inst.Name, v)
				}
				ready = ready && known(pin)
			}
			if !ready {
				pending = true
				continue
			}
			g := gate{fn: fn, pins: make([]int32, len(fn.pins)), out: net(out)}
			for j, v := range fn.pins {
				g.pins[j] = net(inst.Conns[v])
			}
			ev.gates = append(ev.gates, g)
			done[i], progress = true, true
		}
		if !pending {
			break
		}
		if !progress {
			return nil, fmt.Errorf("synth: netlist is cyclic or has undriven nets")
		}
	}
	ev.vals = make([]bool, len(ev.nets))
	return ev, nil
}

// Check reports whether the netlist is valid as a whole over a library
// of the given cell names: every instance has its own name, is of a
// library cell and binds OUT and every input pin; no net has two
// drivers, a primary input counting as one; the gates order without a
// cycle; and every output is driven.
func (n *Netlist) Check(library []string) error {
	driver := make(map[string]string, len(n.Inputs)+len(n.Instances))
	for _, in := range n.Inputs {
		driver[in] = "the input port"
	}
	names := make(map[string]bool, len(n.Instances))
	for _, inst := range n.Instances {
		if !slices.Contains(library, inst.Cell) {
			return fmt.Errorf("synth: %s: unknown cell %q", inst.Name, inst.Cell)
		}
		if names[inst.Name] {
			return fmt.Errorf("synth: two instances named %s", inst.Name)
		}
		names[inst.Name] = true
		out, ok := inst.Conns["OUT"]
		if !ok {
			return fmt.Errorf("synth: %s: pin OUT unbound", inst.Name)
		}
		if d, ok := driver[out]; ok {
			return fmt.Errorf("synth: net %q driven by both %s and %s", out, d, inst.Name)
		}
		driver[out] = inst.Name
	}
	for _, out := range n.Outputs {
		if _, ok := driver[out]; !ok {
			return fmt.Errorf("synth: output %q undriven", out)
		}
	}
	_, err := n.compile()
	return err
}

// run evaluates every gate under the primary-input values bits (in
// Inputs order), reading each cell function's truth table.
func (ev *evaluator) run(bits []bool) {
	for k, i := range ev.inNet {
		ev.vals[i] = bits[k]
	}
	for _, g := range ev.gates {
		row := 0
		for j, p := range g.pins {
			if ev.vals[p] {
				row |= 1 << j
			}
		}
		ev.vals[g.out] = !g.fn.table.Get(row) // cells are inverting: out = f'
	}
}

// Evaluate computes all net values for one input assignment (the
// netlist must be combinational).
func (n *Netlist) Evaluate(in map[string]bool) (map[string]bool, error) {
	bits := make([]bool, len(n.Inputs))
	for k, name := range n.Inputs {
		var ok bool
		if bits[k], ok = in[name]; !ok {
			return nil, fmt.Errorf("synth: input %q not assigned", name)
		}
	}
	ev, err := n.compile()
	if err != nil {
		return nil, err
	}
	ev.run(bits)
	vals := make(map[string]bool, len(ev.names))
	for i, name := range ev.names {
		vals[name] = ev.vals[i]
	}
	return vals, nil
}

// Verify proves the netlist implements the given output functions over
// its primary inputs, in a BDD of at most VerifyNodeBudget nodes whose
// variables follow Inputs order. Spec outputs are built in name order
// (a variable that is not an input is false, as in Expr.Eval), then
// each net gate by gate in evaluation order; every output must be the
// same node as its net. A mismatch names a vector of their XOR, bit k
// being input k. Past the budget, the error wraps logic.ErrNodeBudget
// and names the output or net that outgrew it; a cancelled ctx stops
// the proof with ctx's error.
func (n *Netlist) Verify(ctx context.Context, spec map[string]*logic.Expr) error {
	return n.verify(ctx, spec, VerifyNodeBudget)
}

func (n *Netlist) verify(ctx context.Context, spec map[string]*logic.Expr, budget int) error {
	ev, err := n.compile()
	if err != nil {
		return err
	}
	b := logic.NewBDD(ctx, budget)
	fn := make([]logic.Node, len(ev.nets)) // per net
	vars := make(map[string]logic.Node, len(n.Inputs))
	for k, in := range n.Inputs {
		vars[in] = b.Var(k)
		fn[ev.inNet[k]] = vars[in]
	}
	outs := slices.Sorted(maps.Keys(spec))
	want := make([]logic.Node, len(outs))
	memo := map[*logic.Expr]logic.Node{}
	for j, out := range outs {
		// Every numbered net is an input or an evaluated gate's output.
		if _, ok := ev.nets[out]; !ok {
			return fmt.Errorf("synth: output %q undriven", out)
		}
		if want[j] = b.Of(spec[out], vars, memo); b.Err() != nil {
			return fmt.Errorf("synth: output %q: %w", out, b.Err())
		}
	}
	env := map[string]logic.Node{}
	for _, g := range ev.gates {
		for j, p := range g.fn.pins {
			env[p] = fn[g.pins[j]]
		}
		if fn[g.out] = b.Not(b.Of(g.fn.expr, env, nil)); b.Err() != nil {
			return fmt.Errorf("synth: net %q: %w", ev.names[g.out], b.Err())
		}
	}
	for j, out := range outs {
		vec, got := b.Diff(fn[ev.nets[out]], want[j], len(n.Inputs))
		if vec != nil {
			v := new(big.Int)
			for k, bit := range vec {
				if bit {
					v.SetBit(v, k, 1)
				}
			}
			return fmt.Errorf("synth: output %q wrong on vector %b: got %v want %v", out, v, got, !got)
		}
	}
	return nil
}
