package synth

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"cnfetdk/internal/logic"
)

func TestParseAndFormatRoundTrip(t *testing.T) {
	src := `# a comment
module top
input A B
output Y
u1 NAND2_1X A=A B=B OUT=n1
u2 INV_1X A=n1 OUT=Y
endmodule
`
	n, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "top" || len(n.Instances) != 2 {
		t.Fatalf("parsed %+v", n)
	}
	var buf bytes.Buffer
	if err := n.Format(&buf); err != nil {
		t.Fatal(err)
	}
	n2, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n2.Name != n.Name || len(n2.Instances) != len(n.Instances) {
		t.Fatal("round trip mismatch")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"input A\nendmodule",               // no module
		"module m\nu1\nendmodule",          // malformed instance
		"module m\nu1 INV_1X A\nendmodule", // bad binding
	} {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestEvaluateAndGate(t *testing.T) {
	n := &Netlist{
		Name:   "and2",
		Inputs: []string{"A", "B"},
		Instances: []Instance{
			{Name: "u1", Cell: "NAND2_1X", Conns: map[string]string{"A": "A", "B": "B", "OUT": "n1"}},
			{Name: "u2", Cell: "INV_1X", Conns: map[string]string{"A": "n1", "OUT": "Y"}},
		},
		Outputs: []string{"Y"},
	}
	if err := n.Verify(context.Background(), map[string]*logic.Expr{"Y": logic.MustParse("AB")}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateCyclicFails(t *testing.T) {
	n := &Netlist{
		Name:   "cycle",
		Inputs: []string{"A"},
		Instances: []Instance{
			{Name: "u1", Cell: "NAND2_1X", Conns: map[string]string{"A": "A", "B": "q", "OUT": "q"}},
		},
	}
	if _, err := n.Evaluate(map[string]bool{"A": true}); err == nil {
		t.Fatal("cyclic netlist must be rejected")
	}
}

func TestFullAdderVerifies(t *testing.T) {
	fa := FullAdder()
	if err := fa.Verify(context.Background(), FullAdderSpec()); err != nil {
		t.Fatal(err)
	}
	// Fig 8(a): nine 2X NAND2 gates plus the buffer inverters.
	nands, invs := 0, 0
	for _, inst := range fa.Instances {
		switch baseName(inst.Cell) {
		case "NAND2":
			nands++
			if inst.Cell != "NAND2_2X" {
				t.Errorf("%s: NAND2 gates are 2X in the case study", inst.Name)
			}
		case "INV":
			invs++
		}
	}
	if nands != 9 {
		t.Fatalf("NAND2 count = %d, want 9", nands)
	}
	if invs != 6 {
		t.Fatalf("INV count = %d, want 6", invs)
	}
}

// TestVerifyCatchesWrongNetlist: a 17-input adder with one full
// adder's Sum and Carry swapped fails the proof.
func TestVerifyCatchesWrongNetlist(t *testing.T) {
	nl := RippleCarryAdder(8)
	for i := range nl.Instances {
		c := nl.Instances[i].Conns
		if c["OUT"] == "S3" {
			c["OUT"] = "C4"
		} else if c["OUT"] == "C4" {
			c["OUT"] = "S3"
		}
	}
	err := nl.Verify(context.Background(), RippleCarryAdderSpec(8))
	if err == nil {
		t.Fatal("proof passed a swapped Sum/Carry")
	}
	confirm(t, nl, RippleCarryAdderSpec(8), err)
}

func TestSynthesizeSimple(t *testing.T) {
	out := map[string]*logic.Expr{
		"Y": logic.MustParse("AB+C"),
	}
	n, err := Synthesize("aoi", out)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Instances) == 0 {
		t.Fatal("empty netlist")
	}
	if err := n.Verify(context.Background(), out); err != nil {
		t.Fatal(err)
	}
}

func TestSynthesizeXorShares(t *testing.T) {
	// a⊕b twice: structural sharing should not duplicate the cone.
	e := logic.MustParse("A*B' + A'*B")
	one := map[string]*logic.Expr{"Y": e}
	single, err := Synthesize("x1", one)
	if err != nil {
		t.Fatal(err)
	}
	two := map[string]*logic.Expr{"Y": e, "Z": e}
	double, err := Synthesize("x2", two)
	if err != nil {
		t.Fatal(err)
	}
	if err := single.Verify(context.Background(), one); err != nil {
		t.Fatal(err)
	}
	if err := double.Verify(context.Background(), two); err != nil {
		t.Fatal(err)
	}
	// The second output should reuse nearly the whole cone (just a buffer
	// or rename, not a full recompute).
	if len(double.Instances) > len(single.Instances)+3 {
		t.Fatalf("sharing failed: %d vs %d instances", len(double.Instances), len(single.Instances))
	}
}

func TestSynthesizeFullAdderFunctions(t *testing.T) {
	n, err := Synthesize("fa", FullAdderSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Verify(context.Background(), FullAdderSpec()); err != nil {
		t.Fatal(err)
	}
	// Everything must be NAND2/INV.
	for _, inst := range n.Instances {
		b := baseName(inst.Cell)
		if b != "NAND2" && b != "INV" {
			t.Fatalf("unexpected cell %s", inst.Cell)
		}
	}
}

func TestSizeByFanout(t *testing.T) {
	n := &Netlist{
		Name:   "fan",
		Inputs: []string{"A"},
		Instances: []Instance{
			{Name: "u0", Cell: "INV_1X", Conns: map[string]string{"A": "A", "OUT": "h"}},
			{Name: "u1", Cell: "INV_1X", Conns: map[string]string{"A": "h", "OUT": "y1"}},
			{Name: "u2", Cell: "INV_1X", Conns: map[string]string{"A": "h", "OUT": "y2"}},
			{Name: "u3", Cell: "INV_1X", Conns: map[string]string{"A": "h", "OUT": "y3"}},
			{Name: "u4", Cell: "INV_1X", Conns: map[string]string{"A": "h", "OUT": "y4"}},
		},
	}
	SizeByFanout(n)
	if n.Instances[0].Cell != "INV_4X" {
		t.Fatalf("driver of fanout-4 net = %s, want INV_4X", n.Instances[0].Cell)
	}
	if n.Instances[1].Cell != "INV_1X" {
		t.Fatalf("leaf cell = %s, want INV_1X", n.Instances[1].Cell)
	}
}

func TestNetsAndFanout(t *testing.T) {
	fa := FullAdder()
	nets := fa.Nets()
	if len(nets) == 0 {
		t.Fatal("no nets")
	}
	fan := fa.FanoutCount()
	if fan["n1"] != 3 { // n1 feeds g2, g3, g9
		t.Fatalf("fanout(n1) = %d, want 3", fan["n1"])
	}
}

// TestVerifyProvesWideInputs: the proof has no input cap. ORs of 63,
// 64 and 70 inputs (an enumerated vector count wraps at 64) and the
// 65-input rca32 prove, and dropping one OR term fails on the vector
// that sets only that input (inputs are sorted by name).
func TestVerifyProvesWideInputs(t *testing.T) {
	for _, bits := range []int{63, 64, 70} {
		terms := make([]*logic.Expr, bits)
		for i := range terms {
			terms[i] = logic.Var(fmt.Sprintf("I%d", i))
		}
		spec := map[string]*logic.Expr{"Y": logic.Or(terms...)}
		nl, err := Synthesize("wide", spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := nl.Verify(context.Background(), spec); err != nil {
			t.Fatalf("%d inputs: %v", bits, err)
		}
		spec["Y"] = logic.Or(terms[:bits-1]...)
		err = nl.Verify(context.Background(), spec)
		k := slices.Index(nl.Inputs, fmt.Sprintf("I%d", bits-1))
		if want := "wrong on vector 1" + strings.Repeat("0", k) + ":"; err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%d inputs, one term dropped: err = %v, want …%s", bits, err, want)
		}
	}
	if err := RippleCarryAdder(32).Verify(context.Background(), RippleCarryAdderSpec(32)); err != nil {
		t.Fatalf("rca32: %v", err)
	}
}

// TestEvaluateMatchesSpecEverywhere cross-checks the compiled netlist
// evaluator, which reads each cell's truth table, against the
// tree-walking Expr.Eval on every vector of the 4-bit multiplier.
func TestEvaluateMatchesSpecEverywhere(t *testing.T) {
	nl := ArrayMultiplier(4)
	spec := ArrayMultiplierSpec(4)
	for v := 0; v < 1<<len(nl.Inputs); v++ {
		in := map[string]bool{}
		for k, name := range nl.Inputs {
			in[name] = v>>uint(k)&1 == 1
		}
		vals, err := nl.Evaluate(in)
		if err != nil {
			t.Fatal(err)
		}
		for out, e := range spec {
			if vals[out] != e.Eval(in) {
				t.Fatalf("vector %b: %s = %v, spec says %v", v, out, vals[out], e.Eval(in))
			}
		}
	}
}

// TestEvaluateConcurrent drives evaluation and verification of one
// netlist from several goroutines at once, as the flow's per-tech stages
// do; under -race it pins that evaluators and proofs share no mutable
// state.
func TestEvaluateConcurrent(t *testing.T) {
	nl := ArrayMultiplier(4)
	spec := ArrayMultiplierSpec(4)
	in := map[string]bool{}
	for k, name := range nl.Inputs {
		in[name] = k%3 == 0
	}
	want, err := nl.Evaluate(in)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := nl.Evaluate(in)
				if err != nil {
					errs[g] = err
					return
				}
				for net, v := range want {
					if got[net] != v {
						errs[g] = fmt.Errorf("goroutine %d: net %s = %v, want %v", g, net, got[net], v)
						return
					}
				}
			}
			errs[g] = nl.Verify(context.Background(), spec)
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
