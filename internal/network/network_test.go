package network

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cnfetdk/internal/logic"
)

func mustGate(t *testing.T, name, f string) *Gate {
	t.Helper()
	g, err := NewGate(name, logic.MustParse(f), 1)
	if err != nil {
		t.Fatalf("NewGate(%s): %v", f, err)
	}
	return g
}

func TestFromExprShapes(t *testing.T) {
	sp, err := FromExpr(logic.MustParse("AB+C"))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kind != SPParallel || len(sp.Kids) != 2 {
		t.Fatalf("top = %v with %d kids", sp.Kind, len(sp.Kids))
	}
	if sp.Kids[0].Kind != SPSeries {
		t.Fatal("first branch should be a series chain")
	}
	if sp.Depth() != 2 {
		t.Fatalf("Depth = %d, want 2", sp.Depth())
	}
	if got := len(sp.Leaves()); got != 3 {
		t.Fatalf("Leaves = %d, want 3", got)
	}
}

func TestFromExprNegatedLiteral(t *testing.T) {
	sp, err := FromExpr(logic.MustParse("A'B"))
	if err != nil {
		t.Fatal(err)
	}
	leaves := sp.Leaves()
	if !leaves[0].Neg || leaves[1].Neg {
		t.Fatal("negation flags wrong")
	}
	if _, err := FromExpr(logic.MustParse("(AB)'")); err == nil {
		t.Fatal("negated product must be rejected")
	}
}

func TestAssignWidthsNAND3(t *testing.T) {
	// NAND3 pull-down: ABC in series; each device must be 3x.
	sp, _ := FromExpr(logic.MustParse("ABC"))
	sp.AssignWidths(1)
	for _, l := range sp.Leaves() {
		if l.Width != 3 {
			t.Fatalf("NAND3 chain width = %v, want 3", l.Width)
		}
	}
}

func TestAssignWidthsAOI31(t *testing.T) {
	// Paper Fig 4(b): pull-down ABC+D. The ABC chain is 3x wider than D;
	// the pull-up (A+B+C)*D is series depth 2, all devices 2x.
	pdn, _ := FromExpr(logic.MustParse("ABC+D"))
	pdn.AssignWidths(1)
	leaves := pdn.Leaves()
	for i := 0; i < 3; i++ {
		if leaves[i].Width != 3 {
			t.Fatalf("ABC chain width = %v, want 3", leaves[i].Width)
		}
	}
	if leaves[3].Width != 1 {
		t.Fatalf("D width = %v, want 1", leaves[3].Width)
	}
	pun, _ := FromExpr(logic.MustParse("ABC+D").Dual())
	pun.AssignWidths(1)
	for _, l := range pun.Leaves() {
		if l.Width != 2 {
			t.Fatalf("PUN width = %v, want 2", l.Width)
		}
	}
}

func TestAssignWidthsAsymmetric(t *testing.T) {
	// AOI21 pull-down AB+C: chain AB is 2x, C is 1x.
	sp, _ := FromExpr(logic.MustParse("AB+C"))
	sp.AssignWidths(1)
	l := sp.Leaves()
	if l[0].Width != 2 || l[1].Width != 2 || l[2].Width != 1 {
		t.Fatalf("widths = %v %v %v, want 2 2 1", l[0].Width, l[1].Width, l[2].Width)
	}
}

func TestElaborateSeriesNodes(t *testing.T) {
	sp, _ := FromExpr(logic.MustParse("ABC"))
	nw := Elaborate(sp, NFET, "OUT", "GND")
	if len(nw.Devices) != 3 {
		t.Fatalf("devices = %d", len(nw.Devices))
	}
	// Chain: OUT -A- x1 -B- x2 -C- GND.
	if nw.Devices[0].From != "OUT" || nw.Devices[2].To != "GND" {
		t.Fatalf("chain endpoints wrong: %+v", nw.Devices)
	}
	if nw.Devices[0].To != nw.Devices[1].From || nw.Devices[1].To != nw.Devices[2].From {
		t.Fatal("internal nodes not chained")
	}
	nets := nw.Nets()
	if len(nets) != 4 {
		t.Fatalf("nets = %v", nets)
	}
}

func TestConductNAND2(t *testing.T) {
	g := mustGate(t, "NAND2", "AB")
	inputs := g.Inputs
	down := g.PDN.Conduct("OUT", "GND", inputs)
	if !down.Equal(logic.TableOf(logic.MustParse("AB"), inputs)) {
		t.Fatal("PDN conduction != AB")
	}
	up := g.PUN.Conduct("VDD", "OUT", inputs)
	if !up.Equal(logic.TableOf(logic.MustParse("(AB)'"), inputs).Not().Not()) {
		t.Fatal("PUN conduction != (AB)'")
	}
}

func TestConductInternalNode(t *testing.T) {
	// NAND2 PDN: OUT -A- x1 -B- GND. Conduction OUT..x1 is just A.
	sp, _ := FromExpr(logic.MustParse("AB"))
	nw := Elaborate(sp, NFET, "OUT", "GND")
	mid := nw.Devices[0].To
	inputs := []string{"A", "B"}
	got := nw.Conduct("OUT", mid, inputs)
	if !got.Equal(logic.TableOf(logic.MustParse("A"), inputs)) {
		t.Fatal("OUT..x1 conduction != A")
	}
}

func TestGateComplementary(t *testing.T) {
	for _, f := range []string{"A", "AB", "A+B", "ABC", "A+B+C", "AB+C", "AB+CD", "ABC+D", "(A+B)C", "(A+B)(C+D)"} {
		g := mustGate(t, f, f)
		if !g.Complementary() {
			t.Errorf("gate %q is not complementary", f)
		}
	}
}

func TestOutputTable(t *testing.T) {
	g := mustGate(t, "NOR2", "A+B")
	out := g.OutputTable()
	want := logic.TableOf(logic.MustParse("(A+B)'"), g.Inputs)
	// (A+B)' has exactly one true row (A=B=0).
	if !out.Get(0) || out.Get(1) || out.Get(2) || out.Get(3) || !out.Equal(want.Not().Not()) {
		t.Fatal("NOR2 output table wrong")
	}
}

// Property: every random SP gate is complementary — the De Morgan dual
// construction always yields a well-formed static gate.
func TestRandomGatesComplementaryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vars := []string{"A", "B", "C", "D"}
	var build func(depth int) *logic.Expr
	build = func(depth int) *logic.Expr {
		if depth == 0 || rng.Intn(3) == 0 {
			return logic.Var(vars[rng.Intn(len(vars))])
		}
		n := 2 + rng.Intn(2)
		kids := make([]*logic.Expr, n)
		for i := range kids {
			kids[i] = build(depth - 1)
		}
		if rng.Intn(2) == 0 {
			return logic.And(kids...)
		}
		return logic.Or(kids...)
	}
	f := func() bool {
		e := build(3)
		g, err := NewGate("rand", e, 1)
		if err != nil {
			return false
		}
		return g.Complementary()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: worst-case path resistance after AssignWidths equals the unit
// device resistance (sum of 1/width along any maximal series path through
// the tree's series splits equals 1).
func TestAssignWidthsResistanceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	vars := []string{"A", "B", "C", "D", "E"}
	var build func(depth int) *logic.Expr
	build = func(depth int) *logic.Expr {
		if depth == 0 || rng.Intn(3) == 0 {
			return logic.Var(vars[rng.Intn(len(vars))])
		}
		n := 2 + rng.Intn(2)
		kids := make([]*logic.Expr, n)
		for i := range kids {
			kids[i] = build(depth - 1)
		}
		if rng.Intn(2) == 0 {
			return logic.And(kids...)
		}
		return logic.Or(kids...)
	}
	// worstR computes the maximum resistance over parallel choices, i.e.
	// the worst single conduction path.
	var worstR func(n *SPNode) float64
	worstR = func(n *SPNode) float64 {
		switch n.Kind {
		case SPLeaf:
			return 1 / n.Width
		case SPSeries:
			r := 0.0
			for _, k := range n.Kids {
				r += worstR(k)
			}
			return r
		default:
			r := 0.0
			for _, k := range n.Kids {
				if kr := worstR(k); kr > r {
					r = kr
				}
			}
			return r
		}
	}
	f := func() bool {
		sp, err := FromExpr(build(3))
		if err != nil {
			return false
		}
		sp.AssignWidths(1)
		r := worstR(sp)
		return r > 0.999 && r < 1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
