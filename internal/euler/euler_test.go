package euler

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cnfetdk/internal/logic"
	"cnfetdk/internal/network"
)

func gateGraph(t *testing.T, f string, typ network.DeviceType) *Multigraph {
	t.Helper()
	sp, err := network.FromExpr(logic.MustParse(f))
	if err != nil {
		t.Fatal(err)
	}
	sp.AssignWidths(1)
	top, bottom := "OUT", "GND"
	if typ == network.PFET {
		top, bottom = "VDD", "OUT"
	}
	return FromNetwork(network.Elaborate(sp, typ, top, bottom))
}

func TestInverterTrail(t *testing.T) {
	g := gateGraph(t, "A", network.PFET)
	trails := g.Trails("VDD")
	if len(trails) != 1 {
		t.Fatalf("trails = %d, want 1", len(trails))
	}
	tr := trails[0]
	if tr.Len() != 1 || tr.Nodes[0] != "VDD" || tr.Nodes[1] != "OUT" {
		t.Fatalf("trail = %+v", tr)
	}
	if err := Validate(g, trails); err != nil {
		t.Fatal(err)
	}
}

func TestNAND3PUNTrail(t *testing.T) {
	// NAND3 PUN: three parallel p-FETs VDD-OUT. Both terminals have odd
	// degree 3, so a single trail VDD..OUT exists — the paper's
	// Vdd-A-Out-B-Vdd-C-Out row (Fig 3b).
	g := gateGraph(t, "(ABC)", network.PFET)
	pun := New()
	// Dual of ABC is A+B+C: three parallel edges.
	_ = g
	for _, lbl := range []string{"A", "B", "C"} {
		pun.AddEdge("VDD", "OUT", lbl, false, 1)
	}
	trails := pun.Trails("VDD")
	if len(trails) != 1 {
		t.Fatalf("trails = %d, want 1", len(trails))
	}
	tr := trails[0]
	if tr.Len() != 3 {
		t.Fatalf("trail len = %d", tr.Len())
	}
	if tr.Nodes[0] != "VDD" {
		t.Fatalf("trail should start at VDD, got %s", tr.Nodes[0])
	}
	// Node sequence must alternate VDD/OUT.
	want := []string{"VDD", "OUT", "VDD", "OUT"}
	for i, n := range tr.Nodes {
		if n != want[i] {
			t.Fatalf("nodes = %v, want %v", tr.Nodes, want)
		}
	}
	if err := Validate(pun, trails); err != nil {
		t.Fatal(err)
	}
}

func TestNAND3PDNTrail(t *testing.T) {
	g := gateGraph(t, "ABC", network.NFET)
	trails := g.Trails("GND")
	if len(trails) != 1 {
		t.Fatalf("trails = %d, want 1", len(trails))
	}
	tr := trails[0]
	if tr.Len() != 3 {
		t.Fatalf("len = %d", tr.Len())
	}
	// Endpoints must be the two odd nodes OUT and GND.
	first, last := tr.Nodes[0], tr.Nodes[len(tr.Nodes)-1]
	if !(first == "GND" && last == "OUT") && !(first == "OUT" && last == "GND") {
		t.Fatalf("endpoints = %s..%s", first, last)
	}
	if err := Validate(g, trails); err != nil {
		t.Fatal(err)
	}
}

func TestAOI31Trails(t *testing.T) {
	// Paper Fig 4: PDN of (ABC+D)' is ABC+D — Euler circuit
	// Out-A-x-B-y-C-Gnd-D-Out exists (all nodes even).
	pdn := gateGraph(t, "ABC+D", network.NFET)
	trails := pdn.Trails("OUT")
	if len(trails) != 1 {
		t.Fatalf("PDN trails = %d, want 1", len(trails))
	}
	if err := Validate(pdn, trails); err != nil {
		t.Fatal(err)
	}
	tr := trails[0]
	if tr.Nodes[0] != tr.Nodes[len(tr.Nodes)-1] {
		t.Fatal("PDN walk should be a circuit (all degrees even)")
	}

	// PUN of (ABC+D)' is (A+B+C)*D: VDD deg 3, OUT deg 1 — one open trail.
	pun := gateGraph(t, "(A+B+C)*D", network.PFET)
	ptrails := pun.Trails("VDD")
	if len(ptrails) != 1 {
		t.Fatalf("PUN trails = %d, want 1", len(ptrails))
	}
	if err := Validate(pun, ptrails); err != nil {
		t.Fatal(err)
	}
	p := ptrails[0]
	first, last := p.Nodes[0], p.Nodes[len(p.Nodes)-1]
	if !(first == "VDD" && last == "OUT") && !(first == "OUT" && last == "VDD") {
		t.Fatalf("PUN endpoints = %s..%s, want VDD..OUT", first, last)
	}
}

func TestAOI22PUNCircuitRevisitsInternal(t *testing.T) {
	// PUN of (AB+CD)' is (A+B)(C+D): VDD-{A,B}-m, m-{C,D}-OUT.
	// All degrees even (VDD 2, m 4, OUT 2): one circuit, and the internal
	// node m is visited twice — the redundant-contact case.
	pun := gateGraph(t, "(A+B)(C+D)", network.PFET)
	trails := pun.Trails("VDD")
	if len(trails) != 1 {
		t.Fatalf("trails = %d", len(trails))
	}
	if err := Validate(pun, trails); err != nil {
		t.Fatal(err)
	}
	// Count visits of the internal node.
	internal := ""
	for _, n := range trails[0].Nodes {
		if n != "VDD" && n != "OUT" {
			internal = n
		}
	}
	visits := 0
	for _, n := range trails[0].Nodes {
		if n == internal {
			visits++
		}
	}
	if visits != 2 {
		t.Fatalf("internal node visits = %d, want 2", visits)
	}
}

func TestMinTrailCount(t *testing.T) {
	g := New()
	g.AddEdge("a", "b", "A", false, 1)
	g.AddEdge("b", "c", "B", false, 1)
	if got := g.MinTrailCount(); got != 1 {
		t.Fatalf("path MinTrailCount = %d", got)
	}
	// Star with 4 leaves: 4 odd nodes -> 2 trails.
	s := New()
	for _, leaf := range []string{"p", "q", "r", "s"} {
		s.AddEdge("hub", leaf, leaf, false, 1)
	}
	if got := s.MinTrailCount(); got != 2 {
		t.Fatalf("star MinTrailCount = %d, want 2", got)
	}
	trails := s.Trails("hub")
	if len(trails) != 2 {
		t.Fatalf("star trails = %d, want 2", len(trails))
	}
	if err := Validate(s, trails); err != nil {
		t.Fatal(err)
	}
}

func TestDisconnectedComponents(t *testing.T) {
	g := New()
	g.AddEdge("a", "b", "A", false, 1)
	g.AddEdge("c", "d", "B", false, 1)
	trails := g.Trails("a")
	if len(trails) != 2 {
		t.Fatalf("trails = %d, want 2", len(trails))
	}
	if err := Validate(g, trails); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejectsOneEndpointSteps: a trail step must join both
// endpoints of its edge, in either direction; a step that meets the edge
// at one endpoint only is refused whichever endpoint and direction it
// is. Edge 0 is a-b and edge 1 is b-c; in each case only the first step
// is wrong.
func TestValidateRejectsOneEndpointSteps(t *testing.T) {
	g := New()
	g.AddEdge("a", "b", "A", false, 1)
	g.AddEdge("b", "c", "B", false, 1)
	for _, nodes := range [][]string{
		{"a", "c", "b"}, // forward, U matched, V not
		{"c", "b", "c"}, // forward, V matched, U not
		{"b", "c", "b"}, // reversed, V matched, U not
	} {
		if err := Validate(g, []Trail{{Nodes: nodes, Edges: []int{0, 1}}}); err == nil {
			t.Errorf("trail %v over edges 0, 1 validated", nodes)
		}
	}
	// Reversed, U matched, V not: x-a claims edge 0.
	if err := Validate(g, []Trail{{Nodes: []string{"x", "a"}, Edges: []int{0}}, {Nodes: []string{"b", "c"}, Edges: []int{1}}}); err == nil {
		t.Error("trail x-a over edge 0 validated")
	}
	if err := Validate(g, []Trail{{Nodes: []string{"c", "b", "a"}, Edges: []int{1, 0}}}); err != nil {
		t.Fatalf("reversed trail: %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	build := func() *Multigraph {
		g := New()
		g.AddEdge("VDD", "OUT", "B", false, 1)
		g.AddEdge("VDD", "OUT", "A", false, 1)
		g.AddEdge("VDD", "OUT", "C", false, 1)
		return g
	}
	a := build().Trails("VDD")
	b := build().Trails("VDD")
	if len(a) != len(b) {
		t.Fatal("nondeterministic trail count")
	}
	for i := range a {
		if len(a[i].Edges) != len(b[i].Edges) {
			t.Fatal("nondeterministic trail length")
		}
		for j := range a[i].Edges {
			if a[i].Edges[j] != b[i].Edges[j] {
				t.Fatal("nondeterministic edge order")
			}
		}
	}
	// Deterministic label order: A then B then C from VDD.
	g := build()
	tr := g.Trails("VDD")[0]
	labels := []string{}
	for _, eid := range tr.Edges {
		labels = append(labels, g.Edges[eid].Label)
	}
	if labels[0] != "A" {
		t.Fatalf("first edge label = %s, want A (lowest label first)", labels[0])
	}
}

// Property: on random multigraphs, Trails covers every edge exactly once
// with valid adjacency, and the number of trails equals MinTrailCount.
func TestTrailsCoverageProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	names := []string{"a", "b", "c", "d", "e", "f"}
	f := func() bool {
		g := New()
		n := 1 + rng.Intn(12)
		for i := 0; i < n; i++ {
			u := names[rng.Intn(len(names))]
			v := names[rng.Intn(len(names))]
			if u == v {
				continue // no self loops in transistor networks
			}
			g.AddEdge(u, v, string(rune('A'+i)), false, 1)
		}
		if len(g.Edges) == 0 {
			return true
		}
		trails := g.Trails("a")
		if err := Validate(g, trails); err != nil {
			return false
		}
		return len(trails) == g.MinTrailCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: SP networks from random gate expressions always admit a
// decomposition whose trail count matches the odd-degree bound, and
// terminal endpoints appear at trail ends when they are odd.
func TestSPNetworkTrailsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	vars := []string{"A", "B", "C", "D"}
	var build func(depth int) *logic.Expr
	build = func(depth int) *logic.Expr {
		if depth == 0 || rng.Intn(3) == 0 {
			return logic.Var(vars[rng.Intn(len(vars))])
		}
		k := 2 + rng.Intn(2)
		kids := make([]*logic.Expr, k)
		for i := range kids {
			kids[i] = build(depth - 1)
		}
		if rng.Intn(2) == 0 {
			return logic.And(kids...)
		}
		return logic.Or(kids...)
	}
	f := func() bool {
		sp, err := network.FromExpr(build(3))
		if err != nil {
			return false
		}
		sp.AssignWidths(1)
		nw := network.Elaborate(sp, network.NFET, "OUT", "GND")
		g := FromNetwork(nw)
		trails := g.Trails("GND")
		return Validate(g, trails) == nil && len(trails) == g.MinTrailCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
