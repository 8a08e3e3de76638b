package synth

import (
	"errors"
	"fmt"
	"sort"

	"cnfetdk/internal/logic"
)

// ErrTooManyInputs reports a verification whose input vectors cannot be
// enumerated: exhaustive vectors are counted in 63 bits, so a wider
// count would overflow (a 64-input count of 1<<64 wraps to 0 and would
// "verify" without checking a single vector), and sampled vectors are
// 64-bit words.
var ErrTooManyInputs = errors.New("synth: too many inputs to verify")

// maxExhaustiveInputs is the widest netlist Verify enumerates.
const maxExhaustiveInputs = 62

// cellFunc is one library cell function, parsed once.
type cellFunc struct {
	expr *logic.Expr
	pins []string // the function's variables, sorted
}

// cellFuncs holds CellFunctions parsed once for every evaluation. It is
// read-only; evaluators compile their own Programs from it, because a
// Program's scratch must not be shared across goroutines.
var cellFuncs = func() map[string]cellFunc {
	m := make(map[string]cellFunc, len(CellFunctions))
	for base, f := range CellFunctions {
		e := logic.MustParse(f)
		m[base] = cellFunc{expr: e, pins: e.Vars()}
	}
	return m
}()

// gate is one instance compiled for evaluation: its cell function and
// the net index bound to each of the function's pins.
type gate struct {
	fn   *logic.Program
	pins []int32
	out  int32
}

// evaluator is a netlist compiled for repeated vector evaluation: nets
// are numbered (primary inputs first), and instances are ordered so
// every gate's inputs are computed before it. The order is the one the
// fixed-point evaluation the netlist semantics define would discover:
// readiness depends only on which nets have values, never on the
// values, so it is computed once. An instance whose output already has
// a value (an input, or an earlier driver) never evaluates.
type evaluator struct {
	nets  map[string]int32
	inNet []int32 // net of each primary input, in Inputs order
	gates []gate
	vals  []bool // per-net values of the latest run
	in    []bool // pin scratch
}

func (n *Netlist) compile() (*evaluator, error) {
	ev := &evaluator{nets: map[string]int32{}}
	net := func(name string) int32 {
		i, ok := ev.nets[name]
		if !ok {
			i = int32(len(ev.nets))
			ev.nets[name] = i
		}
		return i
	}
	known := map[string]bool{}
	for _, in := range n.Inputs {
		ev.inNet = append(ev.inNet, net(in))
		known[in] = true
	}
	progs := map[string]*logic.Program{} // per cell base, owned by this evaluator
	done := make([]bool, len(n.Instances))
	for pass := 0; ; pass++ {
		progress, pending := false, false
		for i, inst := range n.Instances {
			if done[i] {
				continue
			}
			out := inst.Conns["OUT"]
			if known[out] {
				done[i] = true
				continue
			}
			base := baseName(inst.Cell)
			fn, ok := cellFuncs[base]
			if !ok {
				return nil, fmt.Errorf("synth: unknown cell %q", inst.Cell)
			}
			ready := true
			for _, v := range fn.pins {
				pin, ok := inst.Conns[v]
				if !ok {
					return nil, fmt.Errorf("synth: %s: pin %s unbound", inst.Name, v)
				}
				ready = ready && known[pin]
			}
			if !ready {
				pending = true
				continue
			}
			if progs[base] == nil {
				progs[base] = logic.Compile([]*logic.Expr{fn.expr}, fn.pins)
			}
			g := gate{fn: progs[base], pins: make([]int32, len(fn.pins)), out: net(out)}
			for j, v := range fn.pins {
				g.pins[j] = net(inst.Conns[v])
			}
			ev.gates = append(ev.gates, g)
			known[out], done[i], progress = true, true, true
		}
		if !pending {
			break
		}
		if !progress || pass > len(n.Instances) {
			return nil, fmt.Errorf("synth: netlist is cyclic or has undriven nets")
		}
	}
	ev.vals = make([]bool, len(ev.nets))
	ev.in = make([]bool, 4)
	return ev, nil
}

// run evaluates every gate under the primary-input values bits (in
// Inputs order).
func (ev *evaluator) run(bits []bool) {
	for k, i := range ev.inNet {
		ev.vals[i] = bits[k]
	}
	for _, g := range ev.gates {
		in := ev.in[:0]
		for _, p := range g.pins {
			in = append(in, ev.vals[p])
		}
		ev.in = in
		ev.vals[g.out] = !g.fn.Eval(in)[0] // cells are inverting: out = f'
	}
}

// Evaluate computes all net values for one input assignment (the
// netlist must be combinational).
func (n *Netlist) Evaluate(in map[string]bool) (map[string]bool, error) {
	for _, i := range n.Inputs {
		if _, ok := in[i]; !ok {
			return nil, fmt.Errorf("synth: input %q not assigned", i)
		}
	}
	ev, err := n.compile()
	if err != nil {
		return nil, err
	}
	bits := make([]bool, len(n.Inputs))
	for k, name := range n.Inputs {
		bits[k] = in[name]
	}
	ev.run(bits)
	vals := make(map[string]bool, len(ev.nets))
	for name, i := range ev.nets {
		vals[name] = ev.vals[i]
	}
	return vals, nil
}

// checker holds a netlist and its specification compiled for repeated
// vector checks; the spec is compiled over the primary inputs, so every
// shared subexpression is evaluated once per vector.
type checker struct {
	ev     *evaluator
	bits   []bool   // the vector under check, in Inputs order
	outs   []string // spec outputs, sorted
	outNet []int32
	spec   *logic.Program
}

func (n *Netlist) checker(spec map[string]*logic.Expr) (*checker, error) {
	ev, err := n.compile()
	if err != nil {
		return nil, err
	}
	c := &checker{ev: ev, bits: make([]bool, len(n.Inputs))}
	for out := range spec {
		c.outs = append(c.outs, out)
	}
	sort.Strings(c.outs)
	exprs := make([]*logic.Expr, len(c.outs))
	for j, out := range c.outs {
		// Every numbered net is an input or an evaluated gate's output.
		i, ok := ev.nets[out]
		if !ok {
			return nil, fmt.Errorf("synth: output %q undriven", out)
		}
		c.outNet = append(c.outNet, i)
		exprs[j] = spec[out]
	}
	c.spec = logic.Compile(exprs, n.Inputs)
	return c, nil
}

// vector checks one input vector: bit k of v is input k.
func (c *checker) vector(v uint64) error {
	for k := range c.bits {
		c.bits[k] = v>>uint(k)&1 == 1
	}
	want := c.spec.Eval(c.bits)
	c.ev.run(c.bits)
	for j, out := range c.outs {
		if got := c.ev.vals[c.outNet[j]]; got != want[j] {
			return fmt.Errorf("synth: output %q wrong on vector %b: got %v want %v", out, v, got, want[j])
		}
	}
	return nil
}

// Verify checks the netlist implements the given output functions over the
// primary inputs (exhaustively). Netlists wider than 62 inputs fail with
// ErrTooManyInputs.
func (n *Netlist) Verify(spec map[string]*logic.Expr) error {
	bits := len(n.Inputs)
	if bits > maxExhaustiveInputs {
		return fmt.Errorf("%w: exhaustive check of %d inputs (at most %d)", ErrTooManyInputs, bits, maxExhaustiveInputs)
	}
	c, err := n.checker(spec)
	if err != nil {
		return err
	}
	rows := uint64(1) << uint(bits)
	for v := uint64(0); v < rows; v++ {
		if err := c.vector(v); err != nil {
			return err
		}
	}
	return nil
}

// VerifySampled checks the netlist against the spec on a deterministic
// sample of input vectors: the all-zero/all-one corners, every
// single-bit-set vector, and pseudo-random vectors drawn from a fixed
// linear-congruential sequence until samples distinct vectors were
// tried. For wide circuits (the 17-input rca8, larger multipliers) this
// replaces the 2^inputs exhaustive scan that would dominate the netlist
// stage. samples <= 0 means exhaustive at every width, and samples >=
// 2^inputs degrades to it: both are Verify. Netlists wider than 64
// inputs fail with ErrTooManyInputs.
func (n *Netlist) VerifySampled(spec map[string]*logic.Expr, samples int) error {
	bits := len(n.Inputs)
	if samples <= 0 || bits <= maxExhaustiveInputs && 1<<uint(bits) <= samples {
		return n.Verify(spec)
	}
	if bits > 64 {
		return fmt.Errorf("%w: sampled check of %d inputs (at most 64)", ErrTooManyInputs, bits)
	}
	c, err := n.checker(spec)
	if err != nil {
		return err
	}
	mask := ^uint64(0) >> uint(64-bits)
	tried := map[uint64]bool{}
	try := func(v uint64) error {
		if tried[v] {
			return nil
		}
		tried[v] = true
		return c.vector(v)
	}
	if err := try(0); err != nil {
		return err
	}
	if err := try(mask); err != nil {
		return err
	}
	for k := 0; k < bits; k++ {
		if err := try(uint64(1) << uint(k)); err != nil {
			return err
		}
	}
	// Fixed-seed LCG (Numerical Recipes constants): the sample is part
	// of the circuit's contract, so it must be reproducible everywhere.
	x := uint64(0x9E3779B97F4A7C15)
	for len(tried) < samples {
		x = x*6364136223846793005 + 1442695040888963407
		if err := try(x >> (64 - uint(bits))); err != nil {
			return err
		}
	}
	return nil
}
