package immunity

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"cnfetdk/internal/cnt"
	"cnfetdk/internal/geom"
	"cnfetdk/internal/layout"
	"cnfetdk/internal/logic"
	"cnfetdk/internal/network"
	"cnfetdk/internal/rules"
)

func buildCell(t *testing.T, f string, style layout.Style, unitLambda int) *layout.Cell {
	t.Helper()
	g, err := network.NewGate(f, logic.MustParse(f), 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := layout.Generate(f, g, style, geom.Lambda(unitLambda), rules.Default65nm(rules.CNFET))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// criticalLines runs a checker's certificate under a live context.
func criticalLines(t *testing.T, ch *Checker) Report {
	t.Helper()
	rep, err := ch.CriticalLines(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// verify certifies both networks of a cell under a live context.
func verify(t *testing.T, c *layout.Cell) (Report, Report) {
	t.Helper()
	pun, pdn, err := VerifyImmunity(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	return pun, pdn
}

// TestCriticalLinesHonoursContext: a cancelled certificate returns the
// context's error and no report, from the checker and from the
// whole-cell verdict alike.
func TestCriticalLinesHonoursContext(t *testing.T) {
	c := buildCell(t, "AB", layout.StyleCompact, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := NewChecker(c.PUN, c.Gate.PUN, c.Gate.Inputs).CriticalLines(ctx)
	if !errors.Is(err, context.Canceled) || rep.TubesChecked != 0 {
		t.Fatalf("CriticalLines on a cancelled context = (%d lines, %v), want (0, context.Canceled)", rep.TubesChecked, err)
	}
	if _, _, err := VerifyImmunity(ctx, c); !errors.Is(err, context.Canceled) {
		t.Fatalf("VerifyImmunity on a cancelled context: err = %v, want context.Canceled", err)
	}
}

func TestInverterAnyMispositionIsBenign(t *testing.T) {
	// Fig 2(a): the inverter tolerates arbitrary misposition — both its
	// contacts flank a single full-height gate.
	c := buildCell(t, "A", layout.StyleCompact, 4)
	cc := NewCellChecker(c)
	pun, pdn := criticalLines(t, cc.PUN()), criticalLines(t, cc.PDN())
	if !pun.Immune() || !pdn.Immune() {
		t.Fatalf("inverter should be immune: PUN %d, PDN %d violations",
			pun.BadTubes, pdn.BadTubes)
	}
}

func TestCondSpansInverterTube(t *testing.T) {
	c := buildCell(t, "A", layout.StyleCompact, 4)
	ch := NewChecker(c.PUN, c.Gate.PUN, c.Gate.Inputs)
	// A horizontal tube through the middle of the PUN row crosses
	// VDD | gate A | OUT: one span with cube A' (p-FET conducts on 0).
	y := float64(c.PUN.BBox.H()) / 2
	spans := ch.CondSpans(geom.Ln(-10, y, float64(c.PUN.BBox.W())+10, y), false)
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	sp := spans[0]
	if sp.NetA != "VDD" || sp.NetB != "OUT" {
		t.Fatalf("span nets = %s-%s", sp.NetA, sp.NetB)
	}
	if len(sp.Cube.Lits) != 1 || sp.Cube.Lits[0].Input != "A" || !sp.Cube.Lits[0].Neg {
		t.Fatalf("cube = %s, want A'", sp.Cube)
	}
}

func TestCondSpansPDNPolarity(t *testing.T) {
	c := buildCell(t, "A", layout.StyleCompact, 4)
	ch := NewChecker(c.PDN, c.Gate.PDN, c.Gate.Inputs)
	y := float64(c.PDN.BBox.H()) / 2
	spans := ch.CondSpans(geom.Ln(-10, y, float64(c.PDN.BBox.W())+10, y), false)
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	if spans[0].Cube.Lits[0].Neg {
		t.Fatalf("n-FET cube should be positive, got %s", spans[0].Cube)
	}
}

func TestTubeMissingActiveIsCut(t *testing.T) {
	c := buildCell(t, "A", layout.StyleCompact, 4)
	ch := NewChecker(c.PUN, c.Gate.PUN, c.Gate.Inputs)
	// A tube far above the strip touches nothing.
	y := float64(c.PUN.BBox.H()) * 3
	if got := ch.CondSpans(geom.Ln(-10, y, 200, y), false); len(got) != 0 {
		t.Fatalf("high tube spans = %d, want 0", len(got))
	}
}

func TestMetallicTubeShortsInverter(t *testing.T) {
	c := buildCell(t, "A", layout.StyleCompact, 4)
	ch := NewChecker(c.PUN, c.Gate.PUN, c.Gate.Inputs)
	y := float64(c.PUN.BBox.H()) / 2
	vs := ch.CheckTube(geom.Ln(-10, y, float64(c.PUN.BBox.W())+10, y), true)
	if len(vs) == 0 {
		t.Fatal("metallic tube should violate (gate cannot cut it off)")
	}
	if vs[0].Reason != "metallic tube short" {
		t.Fatalf("reason = %q", vs[0].Reason)
	}
}

// The paper's headline: compact layouts are 100% immune for every cell in
// the library, certified by critical-line enumeration.
func TestCompactLayoutsImmune(t *testing.T) {
	cells := []string{"A", "AB", "A+B", "ABC", "A+B+C", "AB+C", "(A+B)C", "AB+CD", "(A+B)(C+D)", "ABC+D"}
	for _, f := range cells {
		c := buildCell(t, f, layout.StyleCompact, 4)
		pun, pdn := verify(t, c)
		if !pun.Immune() {
			t.Errorf("%s PUN not immune: %v", f, pun.Violations[0])
		}
		if !pdn.Immune() {
			t.Errorf("%s PDN not immune: %v", f, pdn.Violations[0])
		}
	}
}

// Ref [6]'s etched layouts are also immune — the etch separators cut every
// stray path. (Their cost is area and vertical gating, not function.)
func TestEtchedLayoutsImmune(t *testing.T) {
	cells := []string{"AB", "ABC", "AB+C", "AB+CD"}
	for _, f := range cells {
		c := buildCell(t, f, layout.StyleEtched, 4)
		pun, pdn := verify(t, c)
		if !pun.Immune() || !pdn.Immune() {
			t.Errorf("%s etched layout not immune (PUN %d, PDN %d bad)",
				f, pun.BadTubes, pdn.BadTubes)
		}
	}
}

// Fig 2(b): removing the etch separators leaves the doped inter-strip
// region in place and skewed tubes short VDD to OUT.
func TestVulnerableNAND2Fails(t *testing.T) {
	c := buildCell(t, "AB", layout.StyleVulnerable, 4)
	ch := NewChecker(c.PUN, c.Gate.PUN, c.Gate.Inputs)
	rep := criticalLines(t, ch)
	if rep.Immune() {
		t.Fatal("vulnerable NAND2 PUN must have violations")
	}
	// At least one violation must be an unconditional short.
	short := false
	for _, v := range rep.Violations {
		if len(v.Cube.Lits) == 0 {
			short = true
			break
		}
	}
	if !short {
		t.Fatalf("expected an unconditional VDD-OUT short, got %v", rep.Violations)
	}
}

func TestVulnerableMonteCarloFailureRate(t *testing.T) {
	c := buildCell(t, "AB", layout.StyleVulnerable, 4)
	ch := NewChecker(c.PUN, c.Gate.PUN, c.Gate.Inputs)
	rng := rand.New(rand.NewSource(42))
	rep, err := ch.MonteCarloCtx(context.Background(), 4000, 15, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Immune() {
		t.Fatal("Monte Carlo should find failures in the vulnerable layout")
	}
	if rep.FailureRate() < 0.005 {
		t.Fatalf("failure rate = %.4f, suspiciously low", rep.FailureRate())
	}
	// The compact layout under the same tube distribution is clean.
	cc := buildCell(t, "AB", layout.StyleCompact, 4)
	chc := NewChecker(cc.PUN, cc.Gate.PUN, cc.Gate.Inputs)
	repc, err := chc.MonteCarloCtx(context.Background(), 4000, 15, rand.New(rand.NewSource(42)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !repc.Immune() {
		t.Fatalf("compact layout failed Monte Carlo: %v", repc.Violations[0])
	}
}

func TestFunctionalYieldVulnerableVsCompact(t *testing.T) {
	params := cnt.DefaultParams()
	params.MisalignedFrac = 0.25 // exaggerate to make failures common
	params.MaxAngleDeg = 20
	params.PitchNM = 20

	vuln := NewCellChecker(buildCell(t, "AB", layout.StyleVulnerable, 6))
	comp := NewCellChecker(buildCell(t, "AB", layout.StyleCompact, 6))

	yv := vuln.FunctionalYield(60, params, rand.New(rand.NewSource(7)))
	yc := comp.FunctionalYield(60, params, rand.New(rand.NewSource(7)))
	if yc != 1.0 {
		t.Fatalf("compact functional yield = %.2f, want 1.0", yc)
	}
	if yv >= 1.0 {
		t.Fatalf("vulnerable functional yield = %.2f, expected failures", yv)
	}
}

func TestFunctionalAllAlignedWorks(t *testing.T) {
	// A fully aligned population must realize the cell's truth table in
	// both immune styles: the generated layouts implement their networks.
	params := cnt.DefaultParams()
	params.MisalignedFrac = 0
	for _, f := range []string{"A", "AB", "A+B", "ABC", "AB+C", "AB+CD", "ABC+D", "(A+B)C", "(A+B)(C+D)"} {
		for _, style := range []layout.Style{layout.StyleCompact, layout.StyleEtched} {
			cc := NewCellChecker(buildCell(t, f, style, 4))
			punTubes := cnt.Generate(cc.Cell.PUN.BBox, params, rand.New(rand.NewSource(1)))
			pdnTubes := cnt.Generate(cc.Cell.PDN.BBox, params, rand.New(rand.NewSource(2)))
			if rep := cc.Functional(punTubes, pdnTubes); !rep.Functional {
				t.Errorf("%s %v: aligned population not functional: %v", f, style, rep.Failures)
			}
		}
	}
}

// One metallic tube in an otherwise aligned inverter PUN cannot be gated
// off: with A high the PDN also conducts, so the output is a VDD-GND
// short on exactly that vector.
func TestFunctionalMetallicPUNTubeShorts(t *testing.T) {
	params := cnt.DefaultParams()
	params.MisalignedFrac = 0
	cc := NewCellChecker(buildCell(t, "A", layout.StyleCompact, 4))
	punTubes := cnt.Generate(cc.Cell.PUN.BBox, params, rand.New(rand.NewSource(1)))
	pdnTubes := cnt.Generate(cc.Cell.PDN.BBox, params, rand.New(rand.NewSource(2)))
	punTubes[len(punTubes)/2].Metallic = true
	rep := cc.Functional(punTubes, pdnTubes)
	if rep.Functional || len(rep.Failures) != 1 {
		t.Fatalf("failures = %v, want exactly the A=1 vector", rep.Failures)
	}
	if f := rep.Failures[0]; f.Vector != 1 || f.Expected || f.Got != OutShort {
		t.Fatalf("failure = %v, want vector 1 expected false, output short", f)
	}
}

func TestFunctionalNoTubesFloats(t *testing.T) {
	cc := NewCellChecker(buildCell(t, "AB", layout.StyleCompact, 4))
	rep := cc.Functional(nil, nil)
	if rep.Functional {
		t.Fatal("cell with no tubes cannot be functional")
	}
	if len(rep.Failures) != 4 {
		t.Fatalf("failures = %d, want all 4 vectors", len(rep.Failures))
	}
	for _, f := range rep.Failures {
		if f.Got != OutFloat {
			t.Fatalf("expected floating output, got %v", f.Got)
		}
	}
}

func TestBenignConditionalPathAccepted(t *testing.T) {
	// In the NAND3 PUN (parallel A,B,C), a skewed tube crossing TWO gates
	// between VDD and OUT conducts only when both are low — a strict
	// subset of intended conduction, hence benign. Construct such a tube
	// across the compact row: it passes from the VDD contact (col 0)
	// through gates A and B to the second VDD contact... between VDD and
	// OUT contacts crossing both A and B is geometrically possible only
	// with large angles; instead verify via the cube machinery directly.
	c := buildCell(t, "ABC", layout.StyleCompact, 4)
	ch := NewChecker(c.PUN, c.Gate.PUN, c.Gate.Inputs)
	cube := logic.Cube{Lits: []logic.Literal{
		{Input: "A", Neg: true}, {Input: "B", Neg: true},
	}}
	cubeT := logic.TableOfCube(cube, c.Gate.Inputs)
	want := ch.conductTable("VDD", "OUT")
	if !cubeT.Implies(want) {
		t.Fatal("A'B' between VDD and OUT must be benign in NAND3 PUN")
	}
	// Whereas in the PDN (series ABC), conducting OUT-GND under only A·B
	// (skipping C) is a violation.
	chd := NewChecker(c.PDN, c.Gate.PDN, c.Gate.Inputs)
	cube2 := logic.Cube{Lits: []logic.Literal{{Input: "A"}, {Input: "B"}}}
	cube2T := logic.TableOfCube(cube2, c.Gate.Inputs)
	want2 := chd.conductTable("OUT", "GND")
	if cube2T.Implies(want2) {
		t.Fatal("A·B between OUT and GND must NOT be benign in NAND3 PDN")
	}
}

// Property: every generated compact cell from random SP functions passes
// the Monte Carlo immunity check.
func TestRandomCompactCellsImmuneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
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
	for i := 0; i < 25; i++ {
		e := build(2)
		g, err := network.NewGate("rand", e, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := layout.Generate("rand", g, layout.StyleCompact, geom.Lambda(4),
			rules.Default65nm(rules.CNFET))
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		cc := NewCellChecker(c)
		pr, err := cc.PUN().MonteCarloCtx(context.Background(), 300, 25, rng, 0)
		if err != nil {
			t.Fatal(err)
		}
		dr, err := cc.PDN().MonteCarloCtx(context.Background(), 300, 25, rng, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !pr.Immune() || !dr.Immune() {
			t.Fatalf("random cell %s not immune: %v %v", e, pr.Violations, dr.Violations)
		}
	}
}
