package synth

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cnfetdk/internal/logic"
)

// oracle is Verify's test oracle, the exhaustive vector check: the
// compiled netlist and the spec, compiled as a DAG so shared cones
// evaluate once per vector, on every vector.
type oracle struct {
	ev     *evaluator
	outs   []string // spec outputs, sorted
	outNet []int32
	ops    []specOp // spec nodes in topological order
	outOp  []int
	vals   []bool
}

type specOp struct {
	op   logic.Op
	arg  int // OpVar: input index, -1 when unbound (false, as Eval)
	kids []int
}

func newOracle(n *Netlist, spec map[string]*logic.Expr) (*oracle, error) {
	ev, err := n.compile()
	if err != nil {
		return nil, err
	}
	o := &oracle{ev: ev}
	for out := range spec {
		o.outs = append(o.outs, out)
	}
	sort.Strings(o.outs)
	idx := map[string]int{}
	for k, in := range n.Inputs {
		idx[in] = k
	}
	at := map[*logic.Expr]int{}
	var visit func(e *logic.Expr) int
	visit = func(e *logic.Expr) int {
		if i, ok := at[e]; ok {
			return i
		}
		op := specOp{op: e.Op, arg: -1}
		if k, ok := idx[e.Name]; ok && e.Op == logic.OpVar {
			op.arg = k
		}
		for _, kid := range e.Kids {
			op.kids = append(op.kids, visit(kid))
		}
		at[e] = len(o.ops)
		o.ops = append(o.ops, op)
		return at[e]
	}
	for _, out := range o.outs {
		i, ok := ev.nets[out]
		if !ok {
			return nil, fmt.Errorf("synth: output %q undriven", out)
		}
		o.outNet = append(o.outNet, i)
		o.outOp = append(o.outOp, visit(spec[out]))
	}
	o.vals = make([]bool, len(o.ops))
	return o, nil
}

// check evaluates one vector, bit k of v being input k, and names the
// first output, in name order, on which netlist and spec differ.
func (o *oracle) check(v uint64) error {
	bits := make([]bool, len(o.ev.inNet))
	for k := range bits {
		bits[k] = v>>k&1 == 1
	}
	o.ev.run(bits)
	for i, op := range o.ops {
		switch op.op {
		case logic.OpVar:
			o.vals[i] = op.arg >= 0 && bits[op.arg]
		case logic.OpNot:
			o.vals[i] = !o.vals[op.kids[0]]
		case logic.OpAnd:
			o.vals[i] = true
			for _, k := range op.kids {
				o.vals[i] = o.vals[i] && o.vals[k]
			}
		case logic.OpOr:
			o.vals[i] = false
			for _, k := range op.kids {
				o.vals[i] = o.vals[i] || o.vals[k]
			}
		}
	}
	for j, out := range o.outs {
		if got, want := o.ev.vals[o.outNet[j]], o.vals[o.outOp[j]]; got != want {
			return fmt.Errorf("synth: output %q wrong on vector %b: got %v want %v", out, v, got, want)
		}
	}
	return nil
}

// exhaustive checks every vector of a netlist of at most 20 inputs.
func exhaustive(n *Netlist, spec map[string]*logic.Expr) error {
	o, err := newOracle(n, spec)
	if err != nil {
		return err
	}
	for v := uint64(0); v < 1<<len(n.Inputs); v++ {
		if err := o.check(v); err != nil {
			return err
		}
	}
	return nil
}

var mismatch = regexp.MustCompile(`wrong on vector ([01]+):`)

// confirm re-runs a proof's counterexample through the oracle. Both
// check outputs in name order, and the proof names the first output
// that differs as a function, so on its vector the oracle must fail
// with the very same line.
func confirm(t *testing.T, n *Netlist, spec map[string]*logic.Expr, proof error) {
	t.Helper()
	m := mismatch.FindStringSubmatch(proof.Error())
	if m == nil {
		t.Fatalf("proof error %q names no counterexample", proof)
	}
	v, err := strconv.ParseUint(m[1], 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	o, err := newOracle(n, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.check(v); got == nil || got.Error() != proof.Error() {
		t.Fatalf("oracle on the proof's vector: %v; proof: %v", got, proof)
	}
}

// registryCircuits mirrors the flow registry's builders and specs;
// mult8's spec is proved here (and not in the netlist stage).
var registryCircuits = []struct {
	name  string
	build func() (*Netlist, error)
	spec  func() map[string]*logic.Expr
}{
	{"fulladder", func() (*Netlist, error) { return FullAdder(), nil }, FullAdderSpec},
	{"rca4", func() (*Netlist, error) { return RippleCarryAdder(4), nil }, func() map[string]*logic.Expr { return RippleCarryAdderSpec(4) }},
	{"rca8", func() (*Netlist, error) { return RippleCarryAdder(8), nil }, func() map[string]*logic.Expr { return RippleCarryAdderSpec(8) }},
	{"rca16", func() (*Netlist, error) { return RippleCarryAdder(16), nil }, func() map[string]*logic.Expr { return RippleCarryAdderSpec(16) }},
	{"mult4", func() (*Netlist, error) { return ArrayMultiplier(4), nil }, func() map[string]*logic.Expr { return ArrayMultiplierSpec(4) }},
	{"mult8", func() (*Netlist, error) { return ArrayMultiplier(8), nil }, func() map[string]*logic.Expr { return ArrayMultiplierSpec(8) }},
	{"mux2", Mux2, Mux2Spec},
	{"mux4", Mux4, Mux4Spec},
	{"dec2", Decoder2, Decoder2Spec},
	{"parity4", func() (*Netlist, error) { return ParityTree(4) }, func() map[string]*logic.Expr { return ParityTreeSpec(4) }},
	{"aoichain4", func() (*Netlist, error) { return AOIChain(4), nil }, func() map[string]*logic.Expr { return AOIChainSpec(4) }},
}

// prove runs Verify, with the budget mult8's proof needs (about 200,000
// nodes) for mult8 and VerifyNodeBudget for the others.
func prove(name string, n *Netlist, spec map[string]*logic.Expr) error {
	if name == "mult8" {
		return n.verify(context.Background(), spec, 1<<18)
	}
	return n.Verify(context.Background(), spec)
}

// TestVerifyMatchesOracle: the proof passes every registry circuit, and
// the exhaustive oracle agrees on each of at most 17 inputs (mult8's 16
// outside -short).
func TestVerifyMatchesOracle(t *testing.T) {
	for _, c := range registryCircuits {
		if c.name == "mult8" && testing.Short() {
			continue
		}
		nl, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		if err := prove(c.name, nl, c.spec()); err != nil {
			t.Errorf("%s: proof: %v", c.name, err)
		}
		if len(nl.Inputs) <= 17 {
			if err := exhaustive(nl, c.spec()); err != nil {
				t.Errorf("%s: oracle: %v", c.name, err)
			}
		}
	}
}

// swapCell maps a cell base to another of the same pins.
var swapCell = map[string]string{
	"NAND2": "NOR2", "NOR2": "NAND2", "NAND3": "NOR3", "NOR3": "NAND3",
	"AOI21": "OAI21", "OAI21": "AOI21", "AOI22": "OAI22", "OAI22": "AOI22",
}

// mutate swaps the cell of the first instance that has a same-pin
// counterpart, keeping its drive.
func mutate(nl *Netlist) string {
	for i, inst := range nl.Instances {
		if to, ok := swapCell[baseName(inst.Cell)]; ok {
			nl.Instances[i].Cell = to + strings.TrimPrefix(inst.Cell, baseName(inst.Cell))
			return inst.Name
		}
	}
	return ""
}

// TestVerifyRejectsGateSwapMutants: in every registry circuit, the
// first gate swapped for its dual cell is rejected, with a
// counterexample the oracle confirms; the oracle also rejects the
// mutant wherever it can enumerate the inputs.
func TestVerifyRejectsGateSwapMutants(t *testing.T) {
	for _, c := range registryCircuits {
		if c.name == "mult8" && testing.Short() {
			continue
		}
		nl, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		inst := mutate(nl)
		err = prove(c.name, nl, c.spec())
		if err == nil {
			t.Errorf("%s: mutant %s passed the proof", c.name, inst)
			continue
		}
		confirm(t, nl, c.spec(), err)
		if len(nl.Inputs) <= 17 && exhaustive(nl, c.spec()) == nil {
			t.Errorf("%s: mutant %s passed the oracle", c.name, inst)
		}
	}
}

// TestVerifyCatchesOneMintermError flips rca16's S15 on the one vector
// A=0x5A5A, B=0x3C3C, C0=1, a spec error that a sample of 2^33 vectors
// almost surely misses. The proof names exactly that vector.
func TestVerifyCatchesOneMintermError(t *testing.T) {
	nl := RippleCarryAdder(16)
	spec := RippleCarryAdderSpec(16)
	var lits []*logic.Expr
	vec := make([]byte, len(nl.Inputs)) // input k at vec[len-1-k]
	for k, in := range nl.Inputs {
		bit := in == "C0"
		if i, err := strconv.Atoi(in[1:]); in[0] == 'A' && err == nil {
			bit = 0x5A5A>>i&1 == 1
		} else if in[0] == 'B' && err == nil {
			bit = 0x3C3C>>i&1 == 1
		}
		lit, c := logic.Var(in), byte('1')
		if !bit {
			lit, c = logic.Not(lit), '0'
		}
		lits = append(lits, lit)
		vec[len(vec)-1-k] = c
	}
	m := logic.And(lits...)
	s15 := spec["S15"]
	spec["S15"] = logic.Or(logic.And(s15, logic.Not(m)), logic.And(logic.Not(s15), m))
	err := nl.Verify(context.Background(), spec)
	want := fmt.Sprintf("output %q wrong on vector %s:", "S15", strings.TrimLeft(string(vec), "0"))
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want %s…", err, want)
	}
	confirm(t, nl, spec, err)
}

// TestVerifyNodeBudget: a proof past its budget fails typed, naming the
// budget and the output whose spec outgrew it (C16, the first by name).
// A cancelled context stops a proof.
func TestVerifyNodeBudget(t *testing.T) {
	err := RippleCarryAdder(16).verify(context.Background(), RippleCarryAdderSpec(16), 500)
	if !errors.Is(err, logic.ErrNodeBudget) || !strings.Contains(err.Error(), `output "C16"`) || !strings.Contains(err.Error(), "500 nodes") {
		t.Fatalf("err = %v, want ErrNodeBudget of 500 nodes naming C16", err)
	}
	// Past the spec, the net that outgrows the budget is named: here
	// one of Z's, a 12-term sum of products the spec does not check.
	nl, err := Synthesize("extra", map[string]*logic.Expr{"Y": logic.Var("A00"),
		"Z": logic.MustParse("A00 B00+A01 B01+A02 B02+A03 B03+A04 B04+A05 B05+A06 B06+A07 B07+A08 B08+A09 B09+A10 B10+A11 B11")})
	if err != nil {
		t.Fatal(err)
	}
	err = nl.verify(context.Background(), map[string]*logic.Expr{"Y": logic.Var("A00")}, 5000)
	if !errors.Is(err, logic.ErrNodeBudget) || !strings.Contains(err.Error(), `net "`) {
		t.Fatalf("err = %v, want ErrNodeBudget naming a net", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ArrayMultiplier(8).Verify(ctx, ArrayMultiplierSpec(8)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled proof: err = %v, want context.Canceled", err)
	}
}

// FuzzProveMatchesOracle synthesizes a random expression over at most 8
// inputs, optionally swaps one instance's cell (mode 1) or two of its
// pins (mode 2), and requires the proof's verdict to be the exhaustive
// oracle's; the oracle must confirm a rejection's counterexample, and
// any other error must be the oracle's too. Tier-1 runs the committed
// seeds in testdata/fuzz.
func FuzzProveMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte, mode uint8, at uint16) {
		if len(prog) > 64 {
			return
		}
		e := fuzzExpr(prog)
		spec := map[string]*logic.Expr{"Y": e}
		nl, err := Synthesize("fz", spec)
		if err != nil {
			t.Fatalf("Synthesize(%s): %v", e, err)
		}
		if len(nl.Instances) > 0 {
			inst := &nl.Instances[int(at)%len(nl.Instances)]
			switch mode % 3 {
			case 1:
				if to, ok := swapCell[baseName(inst.Cell)]; ok {
					inst.Cell = to + strings.TrimPrefix(inst.Cell, baseName(inst.Cell))
				}
			case 2:
				pins := make([]string, 0, len(inst.Conns))
				for p := range inst.Conns {
					pins = append(pins, p)
				}
				sort.Strings(pins)
				p, q := pins[int(at)%len(pins)], pins[int(at/7)%len(pins)]
				inst.Conns[p], inst.Conns[q] = inst.Conns[q], inst.Conns[p]
			}
		}
		proof := nl.Verify(context.Background(), spec)
		want := exhaustive(nl, spec)
		if (proof == nil) != (want == nil) {
			t.Fatalf("%s: proof %v, oracle %v", e, proof, want)
		}
		if mismatch.MatchString(fmt.Sprint(proof)) {
			confirm(t, nl, spec, proof)
		} else if fmt.Sprint(proof) != fmt.Sprint(want) {
			t.Fatalf("%s: proof %v, oracle %v", e, proof, want)
		}
	})
}

// fuzzExpr decodes bytes into an expression over I0..I7: a stack
// program whose bytes push a variable, negate, or combine the top two.
func fuzzExpr(prog []byte) *logic.Expr {
	stack := []*logic.Expr{logic.Var("I0")}
	for _, c := range prog {
		switch n := len(stack); {
		case c < 160:
			stack = append(stack, logic.Var(fmt.Sprintf("I%d", c%8)))
		case c < 192:
			stack[n-1] = logic.Not(stack[n-1])
		case n >= 2 && c < 224:
			stack = append(stack[:n-2], logic.And(stack[n-2], stack[n-1]))
		case n >= 2:
			stack = append(stack[:n-2], logic.Or(stack[n-2], stack[n-1]))
		}
	}
	return logic.Or(stack...)
}
