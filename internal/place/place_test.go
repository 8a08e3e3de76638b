package place

import (
	"testing"

	"cnfetdk/internal/cells"
	"cnfetdk/internal/rules"
	"cnfetdk/internal/synth"
)

func libs(t *testing.T) (*cells.Library, *cells.Library) {
	t.Helper()
	return cells.NewLibrary(rules.CNFET), cells.NewLibrary(rules.CMOS)
}

func TestRowsPlacesAllCells(t *testing.T) {
	cn, _ := libs(t)
	fa := synth.FullAdder()
	p, err := Rows(cn, fa, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Cells) != len(fa.Instances) {
		t.Fatalf("placed %d of %d cells", len(p.Cells), len(fa.Instances))
	}
	// No overlaps: pairwise rectangle check.
	for i := range p.Cells {
		for j := i + 1; j < len(p.Cells); j++ {
			a, b := p.Cells[i], p.Cells[j]
			if a.X < b.X+b.W && b.X < a.X+a.W && a.Y < b.Y+b.H && b.Y < a.Y+a.H {
				t.Fatalf("cells %s and %s overlap", a.Inst.Name, b.Inst.Name)
			}
		}
	}
	// All cells inside the bounding box.
	for _, c := range p.Cells {
		if c.X+c.W > p.Width || c.Y+c.H > p.Height {
			t.Fatalf("cell %s outside placement", c.Inst.Name)
		}
	}
}

func TestRowsNormalizedHeights(t *testing.T) {
	cn, _ := libs(t)
	fa := synth.FullAdder()
	p, err := Rows(cn, fa, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := p.Cells[0].H
	for _, c := range p.Cells {
		if c.H != h {
			t.Fatalf("scheme-1 heights not normalized: %v vs %v", c.H, h)
		}
	}
	// The paper's intuition: INV_4X and INV_9X occupy the same height
	// after standardization, wasting area — utilization < 1.
	if p.Utilization() >= 0.999 {
		t.Fatalf("scheme-1 utilization = %.3f, expected normalization waste", p.Utilization())
	}
}

func TestShelvesPacking(t *testing.T) {
	cn, _ := libs(t)
	fa := synth.FullAdder()
	p, err := Shelves(cn, fa, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Cells) != len(fa.Instances) {
		t.Fatal("missing cells")
	}
	for i := range p.Cells {
		for j := i + 1; j < len(p.Cells); j++ {
			a, b := p.Cells[i], p.Cells[j]
			if a.X < b.X+b.W && b.X < a.X+a.W && a.Y < b.Y+b.H && b.Y < a.Y+a.H {
				t.Fatalf("cells %s and %s overlap", a.Inst.Name, b.Inst.Name)
			}
		}
	}
	// Scheme 2 keeps natural heights: better utilization than scheme 1.
	p1, err := Rows(cn, fa, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Utilization() <= p1.Utilization() {
		t.Fatalf("scheme2 utilization %.3f should beat scheme1 %.3f",
			p.Utilization(), p1.Utilization())
	}
}

func TestCaseStudy2AreaGains(t *testing.T) {
	// Fig 8 / conclusions: scheme 1 ≈ 1.4x and scheme 2 ≈ 1.6x area gain
	// over the CMOS placement of the same full adder.
	cn, cm := libs(t)
	fa := synth.FullAdder()
	pCMOS, err := Rows(cm, fa, 2)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := Rows(cn, fa, 2)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Shelves(cn, fa, 0)
	if err != nil {
		t.Fatal(err)
	}
	g1 := pCMOS.Area() / p1.Area()
	g2 := pCMOS.Area() / p2.Area()
	t.Logf("area gains: scheme1 %.2fx scheme2 %.2fx (paper: ~1.4x / ~1.6x)", g1, g2)
	if g1 < 1.2 || g1 > 1.7 {
		t.Fatalf("scheme-1 area gain = %.2f, want ~1.4", g1)
	}
	if g2 <= g1 {
		t.Fatalf("scheme-2 gain %.2f should exceed scheme-1 %.2f", g2, g1)
	}
	if g2 < 1.4 || g2 > 2.1 {
		t.Fatalf("scheme-2 area gain = %.2f, want ~1.6", g2)
	}
}

func TestHPWL(t *testing.T) {
	cn, _ := libs(t)
	fa := synth.FullAdder()
	p, err := Rows(cn, fa, 2)
	if err != nil {
		t.Fatal(err)
	}
	wl := p.HPWL(fa)
	if len(wl) == 0 {
		t.Fatal("no wirelengths")
	}
	// A multi-pin net must have positive length.
	if wl["n1"] <= 0 {
		t.Fatalf("HPWL(n1) = %v", wl["n1"])
	}
}

func TestRowsAutoCount(t *testing.T) {
	cn, _ := libs(t)
	fa := synth.FullAdder()
	p, err := Rows(cn, fa, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Height <= 0 || p.Width <= 0 {
		t.Fatal("degenerate placement")
	}
}

func TestUnknownCellFails(t *testing.T) {
	cn, _ := libs(t)
	nl := &synth.Netlist{
		Name:      "bad",
		Instances: []synth.Instance{{Name: "u1", Cell: "XOR9_1X", Conns: map[string]string{}}},
	}
	if _, err := Rows(cn, nl, 1); err == nil {
		t.Fatal("unknown cell should fail placement")
	}
}
