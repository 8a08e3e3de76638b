package layout

import (
	"math"
	"testing"

	"cnfetdk/internal/geom"
	"cnfetdk/internal/logic"
	"cnfetdk/internal/network"
	"cnfetdk/internal/rules"
)

func cnfet() rules.Rules { return rules.Default65nm(rules.CNFET) }
func cmos() rules.Rules  { return rules.Default65nm(rules.CMOS) }

func gate(t *testing.T, name, f string) *network.Gate {
	t.Helper()
	g, err := network.NewGate(name, logic.MustParse(f), 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func gen(t *testing.T, f string, style Style, unitLambda int) *Cell {
	t.Helper()
	g := gate(t, f, f)
	c, err := Generate(f, g, style, geom.Lambda(unitLambda), cnfet())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestInverterCompactRow(t *testing.T) {
	c := gen(t, "A", StyleCompact, 4)
	// PUN row: contact VDD | gate A | contact OUT = 3+1+2+1+3 = 10λ wide,
	// 4λ tall.
	if got := c.PUN.BBox.W(); got != geom.Lambda(10) {
		t.Fatalf("INV PUN width = %vλ, want 10", got.Lambdas())
	}
	if got := c.PUN.BBox.H(); got != geom.Lambda(4) {
		t.Fatalf("INV PUN height = %vλ, want 4", got.Lambdas())
	}
	cs := c.PUN.Contacts()
	if len(cs) != 2 {
		t.Fatalf("INV PUN contacts = %d", len(cs))
	}
	if cs[0].Net != "VDD" || cs[1].Net != "OUT" {
		t.Fatalf("contact nets = %s,%s", cs[0].Net, cs[1].Net)
	}
	if len(c.PUN.Gates()) != 1 {
		t.Fatal("INV PUN should have one gate")
	}
	if c.ViasOnGate() != 0 {
		t.Fatal("compact layouts need no vertical gating")
	}
}

func TestInverterStyleEquivalence(t *testing.T) {
	// Table 1 row 1: the inverter has no parallel branches, so the etched
	// and compact styles coincide in area for every size.
	for _, w := range []int{3, 4, 6, 10} {
		a := gen(t, "A", StyleCompact, w)
		b := gen(t, "A", StyleEtched, w)
		if a.NetworksArea() != b.NetworksArea() {
			t.Fatalf("w=%dλ: compact %v vs etched %v", w, a.NetworksArea(), b.NetworksArea())
		}
	}
}

func TestNAND3CompactPUNRow(t *testing.T) {
	c := gen(t, "ABC", StyleCompact, 4)
	// Fig 3(b): Vdd A Out B Vdd C Out — 4 contacts, 3 gates, all p-devices
	// 1x (4λ). Width = 4*3 + 3*2 + 6*1 = 24λ.
	if got := c.PUN.BBox.W(); got != geom.Lambda(24) {
		t.Fatalf("NAND3 PUN width = %vλ, want 24", got.Lambdas())
	}
	if got := c.PUN.BBox.H(); got != geom.Lambda(4) {
		t.Fatalf("NAND3 PUN height = %vλ, want 4", got.Lambdas())
	}
	cs := c.PUN.Contacts()
	if len(cs) != 4 {
		t.Fatalf("NAND3 PUN contacts = %d, want 4", len(cs))
	}
	// Contacts must alternate VDD/OUT.
	for i, e := range cs {
		want := "VDD"
		if i%2 == 1 {
			want = "OUT"
		}
		if e.Net != want {
			t.Fatalf("contact %d net = %s, want %s", i, e.Net, want)
		}
	}
	// No etched regions in the compact layout.
	if len(c.PUN.Etches()) != 0 {
		t.Fatal("compact NAND3 PUN must not contain etched regions")
	}
}

func TestNAND3CompactPDNSharedDiffusion(t *testing.T) {
	c := gen(t, "ABC", StyleCompact, 4)
	// PDN chain: OUT | A B C | GND with shared diffusion (2 contacts) and
	// 3x devices (12λ strips). Width = 2*3 + 3*2 + 2*1 + 2*2 = 18λ.
	if got := c.PDN.BBox.W(); got != geom.Lambda(18) {
		t.Fatalf("NAND3 PDN width = %vλ, want 18", got.Lambdas())
	}
	if got := c.PDN.BBox.H(); got != geom.Lambda(12) {
		t.Fatalf("NAND3 PDN height = %vλ, want 12 (3x sizing)", got.Lambdas())
	}
	if got := len(c.PDN.Contacts()); got != 2 {
		t.Fatalf("NAND3 PDN contacts = %d, want 2", got)
	}
}

func TestNAND3EtchedPUNStack(t *testing.T) {
	c := gen(t, "ABC", StyleEtched, 4)
	// Fig 3(a): three stacked 4λ strips with two 2λ etched separators:
	// height = 16λ, width = 10λ.
	if got := c.PUN.BBox.W(); got != geom.Lambda(10) {
		t.Fatalf("etched NAND3 PUN width = %vλ, want 10", got.Lambdas())
	}
	if got := c.PUN.BBox.H(); got != geom.Lambda(16) {
		t.Fatalf("etched NAND3 PUN height = %vλ, want 16", got.Lambdas())
	}
	if got := len(c.PUN.Etches()); got != 2 {
		t.Fatalf("etched NAND3 PUN etch count = %d, want 2", got)
	}
	// Buried gates (two lower strips) need vertical gating.
	if got := c.PUN.ViasOnGate; got != 2 {
		t.Fatalf("etched NAND3 PUN vias = %d, want 2", got)
	}
	// The PDN is a plain series chain: identical to the compact one.
	cc := gen(t, "ABC", StyleCompact, 4)
	if c.PDN.BBoxArea() != cc.PDN.BBoxArea() {
		t.Fatal("etched and compact NAND3 PDNs should match")
	}
}

func TestFig3NAND3AreaDelta(t *testing.T) {
	// The paper quotes 16.67% for NAND3 at 4λ; our reconstruction of the
	// ref [6] style lands near that (the exact conventions of [6] are not
	// published — see DESIGN.md ("Etched-layout reconstruction")). Assert
	// the compact layout wins by 13-20%.
	oldC := gen(t, "ABC", StyleEtched, 4)
	newC := gen(t, "ABC", StyleCompact, 4)
	saving := 1 - newC.NetworksArea()/oldC.NetworksArea()
	if saving < 0.13 || saving > 0.20 {
		t.Fatalf("NAND3 4λ area saving = %.2f%%, want ~16.67%%", saving*100)
	}
}

func TestTable1Shape(t *testing.T) {
	// Qualitative invariants of Table 1: savings are zero for INV,
	// positive for multi-input cells, larger for higher fan-in at equal
	// size (AOI21 > NAND3 > NAND2), and shrink as transistor size grows.
	cellsByFanin := []string{"AB", "ABC", "AB+C"} // NAND2, NAND3, AOI21
	sizes := []int{3, 4, 6, 10}
	savings := map[string][]float64{}
	for _, f := range cellsByFanin {
		for _, w := range sizes {
			oldA := gen(t, f, StyleEtched, w).NetworksArea()
			newA := gen(t, f, StyleCompact, w).NetworksArea()
			savings[f] = append(savings[f], 1-newA/oldA)
		}
	}
	for f, s := range savings {
		for i := range s {
			if s[i] <= 0 {
				t.Errorf("%s size %dλ: saving %.3f not positive", f, sizes[i], s[i])
			}
			if i > 0 && s[i] >= s[i-1] {
				t.Errorf("%s: saving should decrease with size: %v", f, s)
			}
		}
	}
	for i := range sizes {
		if !(savings["AB+C"][i] > savings["ABC"][i] && savings["ABC"][i] > savings["AB"][i]) {
			t.Errorf("size %dλ: fan-in ordering violated: AOI21 %.3f NAND3 %.3f NAND2 %.3f",
				sizes[i], savings["AB+C"][i], savings["ABC"][i], savings["AB"][i])
		}
	}
}

func TestVulnerableKeepsDopedSeparator(t *testing.T) {
	e := gen(t, "AB", StyleEtched, 4)
	v := gen(t, "AB", StyleVulnerable, 4)
	if len(e.PUN.Etches()) == 0 {
		t.Fatal("etched NAND2 PUN should have an etch separator")
	}
	if len(v.PUN.Etches()) != 0 {
		t.Fatal("vulnerable NAND2 PUN must have no etch")
	}
	// The vulnerable active area strictly exceeds the etched one (the
	// separator region keeps its tubes).
	if v.PUN.ActiveArea() <= e.PUN.ActiveArea() {
		t.Fatalf("vulnerable active %.1f <= etched %.1f", v.PUN.ActiveArea(), e.PUN.ActiveArea())
	}
	// Same bounding box either way.
	if v.PUN.BBoxArea() != e.PUN.BBoxArea() {
		t.Fatal("etch removal must not change the bounding box")
	}
}

func TestAOI22CompactRedundantContacts(t *testing.T) {
	c := gen(t, "AB+CD", StyleCompact, 4)
	// PUN (A+B)(C+D): Euler circuit revisits the internal node m, which
	// needs redundant contacts: 5 contacts total.
	if got := len(c.PUN.Contacts()); got != 5 {
		t.Fatalf("AOI22 PUN contacts = %d, want 5", got)
	}
	// A strap must join the two internal-node contacts.
	strap := false
	for _, e := range c.PUN.Elements {
		if e.Kind == ElemStrap && e.Net == "x1" {
			strap = true
		}
	}
	if !strap {
		t.Fatal("internal net contacts must be strapped")
	}
}

func TestAOI21CompactPassThrough(t *testing.T) {
	c := gen(t, "AB+C", StyleCompact, 4)
	// PDN AB+C: circuit OUT-A-x-B-GND-C-OUT (or a relabeling): the
	// degree-2 internal node is a shared-diffusion pass-through, so only
	// 3 contacts appear.
	if got := len(c.PDN.Contacts()); got != 3 {
		t.Fatalf("AOI21 PDN contacts = %d, want 3", got)
	}
	if got := len(c.PDN.Gates()); got != 3 {
		t.Fatalf("AOI21 PDN gates = %d, want 3", got)
	}
}

func TestCMOSInverterAreaGain(t *testing.T) {
	// Case study 1: CNFET inverter area gain ~1.4x at w=4λ, declining
	// with width (fixed network separation amortizes).
	gains := []float64{}
	for _, w := range []int{4, 6, 10} {
		g := gate(t, "A", "A")
		cn, err := Generate("A", g, StyleCompact, geom.Lambda(w), cnfet())
		if err != nil {
			t.Fatal(err)
		}
		cm, err := Generate("A", g, StyleCompact, geom.Lambda(w), cmos())
		if err != nil {
			t.Fatal(err)
		}
		// Height comparison per the paper's formula: CNFET p=n width w
		// with 6λ separation vs CMOS p=1.4n with 10λ separation; the row
		// widths are identical so the height ratio is the area gain.
		hCN := cn.PUN.BBox.H() + cn.PDN.BBox.H() + cnfet().NetworkGap
		hCM := cm.PUN.BBox.H() + cm.PDN.BBox.H() + cmos().NetworkGap
		gains = append(gains, float64(hCM)/float64(hCN))
	}
	if math.Abs(gains[0]-1.4) > 0.02 {
		t.Fatalf("area gain at 4λ = %.3f, want ~1.4", gains[0])
	}
	if !(gains[0] > gains[1] && gains[1] > gains[2]) {
		t.Fatalf("area gain should decline with width: %v", gains)
	}
}

func TestCMOSPUNUsesRatio(t *testing.T) {
	g := gate(t, "A", "A")
	cm, err := Generate("A", g, StyleCompact, geom.Lambda(10), cmos())
	if err != nil {
		t.Fatal(err)
	}
	// pMOS = 1.4 × 10λ = 14λ.
	if got := cm.PUN.BBox.H(); got != geom.Lambda(14) {
		t.Fatalf("CMOS PUN height = %vλ, want 14", got.Lambdas())
	}
	if got := cm.PDN.BBox.H(); got != geom.Lambda(10) {
		t.Fatalf("CMOS PDN height = %vλ, want 10", got.Lambdas())
	}
}

func TestAssembleScheme1(t *testing.T) {
	c := gen(t, "AB", StyleCompact, 4)
	a := c.Assemble(Scheme1)
	rs := cnfet()
	wantH := rs.RailH + c.PDN.BBox.H() + rs.NetworkGap + c.PUN.BBox.H() + rs.RailH
	if a.Height != wantH {
		t.Fatalf("scheme1 height = %vλ, want %vλ", a.Height.Lambdas(), wantH.Lambdas())
	}
	if a.Width < c.PUN.BBox.W() || a.Width < c.PDN.BBox.W() {
		t.Fatal("cell too narrow")
	}
	// Pins: 2 inputs + 1 output.
	pins := 0
	for _, e := range a.Elements {
		if e.Kind == ElemPin {
			pins++
		}
	}
	if pins != 3 {
		t.Fatalf("pins = %d, want 3", pins)
	}
}

func TestAssembleScheme2Shorter(t *testing.T) {
	// Scheme 2's cell height collapses to the strip height — the area win
	// the paper reports comes at placement time (no height normalization
	// waste), so here we assert only the height relation.
	c := gen(t, "AB", StyleCompact, 4)
	s1 := c.Assemble(Scheme1)
	s2 := c.Assemble(Scheme2)
	if s2.Height >= s1.Height {
		t.Fatalf("scheme2 height %vλ should be below scheme1 %vλ",
			s2.Height.Lambdas(), s1.Height.Lambdas())
	}
}

func TestAssembleToHeightStretches(t *testing.T) {
	c := gen(t, "A", StyleCompact, 4)
	target := geom.Lambda(60)
	a := c.AssembleToHeight(Scheme1, target)
	if a.Height != target {
		t.Fatalf("standardized height = %vλ, want %vλ", a.Height.Lambdas(), target.Lambdas())
	}
}

func TestUnionArea(t *testing.T) {
	rects := []geom.Rect{
		geom.R(0, 0, geom.Lambda(4), geom.Lambda(4)),
		geom.R(geom.Lambda(2), 0, geom.Lambda(6), geom.Lambda(4)), // overlaps by 2λ×4λ
	}
	if got := UnionArea(rects); got != 24 {
		t.Fatalf("UnionArea = %v, want 24", got)
	}
	if got := UnionArea(nil); got != 0 {
		t.Fatalf("UnionArea(nil) = %v", got)
	}
}

func TestActiveCoversElements(t *testing.T) {
	// Every contact and gate must lie inside the active region (the
	// immunity checker depends on this invariant).
	for _, f := range []string{"A", "AB", "ABC", "AB+C", "AB+CD", "ABC+D", "(A+B)C"} {
		for _, style := range []Style{StyleCompact, StyleEtched, StyleVulnerable} {
			c := gen(t, f, style, 4)
			for _, ng := range []*NetGeom{c.PUN, c.PDN} {
				for _, e := range ng.Elements {
					if e.Kind != ElemContact && e.Kind != ElemGate {
						continue
					}
					covered := UnionArea(append(append([]geom.Rect{}, ng.Active...), e.Rect)) ==
						UnionArea(ng.Active)
					if !covered {
						t.Fatalf("%s %s: %s %v not covered by active", f, style, e.Kind, e.Rect)
					}
				}
			}
		}
	}
}
