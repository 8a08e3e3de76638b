package cells

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"cnfetdk/internal/device"
	"cnfetdk/internal/drc"
	"cnfetdk/internal/layout"
	"cnfetdk/internal/rules"
	"cnfetdk/internal/spice"
)

func TestLibraryContents(t *testing.T) {
	l := NewLibrary(rules.CNFET)
	names := l.Names()
	for _, want := range []string{"INV_1X", "INV_9X", "NAND2_2X", "NAND3_1X", "AOI21_1X", "AOI31_1X"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("library missing %s (have %v)", want, names)
		}
	}
	if _, err := l.Get("NAND9_1X"); err == nil {
		t.Fatal("bogus cell lookup should fail")
	}
}

// TestEveryCellBuildsDRCClean: a kit builds no cell up front, so this
// is where every cell of both libraries is laid out: its first Get
// succeeds (Get refuses a layout with a design-rule violation), later
// Gets return the same cell, and its layout checks clean.
func TestEveryCellBuildsDRCClean(t *testing.T) {
	for _, tech := range []rules.Tech{rules.CNFET, rules.CMOS} {
		l := NewLibrary(tech)
		names := l.Names()
		if len(names) != 23 {
			t.Fatalf("%s: %d cells, want 23", tech, len(names))
		}
		for _, name := range names {
			c, err := l.Get(name)
			if err != nil {
				t.Fatalf("%s %s: %v", tech, name, err)
			}
			if c.FullName() != name || c.Tech != tech || c.Layout == nil || c.Gate == nil {
				t.Fatalf("%s %s: built %s (tech %s), layout %v, gate %v", tech, name, c.FullName(), c.Tech, c.Layout != nil, c.Gate != nil)
			}
			if again := l.MustGet(name); again != c {
				t.Fatalf("%s %s: a second Get built the cell again", tech, name)
			}
			if vs := drc.CheckCell(c.Layout); len(vs) > 0 {
				t.Fatalf("%s %s: %d violations, first: %s", tech, name, len(vs), vs[0])
			}
		}
	}
}

func TestCellLayoutsAreCompactStyle(t *testing.T) {
	l := NewLibrary(rules.CNFET)
	for _, n := range l.Names() {
		c := l.MustGet(n)
		if c.Layout.Style != layout.StyleCompact {
			t.Errorf("%s: style = %v", n, c.Layout.Style)
		}
		if got := c.Layout.ViasOnGate(); got != 0 {
			t.Errorf("%s: %d vertical-gating vias in a compact layout", n, got)
		}
	}
}

func TestDriveScalesLayoutHeight(t *testing.T) {
	l := NewLibrary(rules.CNFET)
	h1 := l.MustGet("INV_1X").Layout.PUN.BBox.H()
	h4 := l.MustGet("INV_4X").Layout.PUN.BBox.H()
	if h4 != 4*h1 {
		t.Fatalf("INV_4X PUN height = %v, want 4x %v", h4, h1)
	}
}

func TestInstantiateInverterWorks(t *testing.T) {
	l := NewLibrary(rules.CNFET)
	inv := l.MustGet("INV_1X")
	ckt := spice.New()
	ckt.AddV("vdd", "VDD", "0", spice.DC(device.Vdd))
	ckt.AddV("vin", "in", "0", spice.DC(0))
	if err := l.Instantiate(ckt, "u1", inv, map[string]string{"A": "in", "OUT": "out"}); err != nil {
		t.Fatal(err)
	}
	x, err := ckt.OP()
	if err != nil {
		t.Fatal(err)
	}
	if v := x[ckt.Node("out")-1]; v < 0.95 {
		t.Fatalf("inverter(0) = %v, want ~1", v)
	}
}

func TestInstantiateRejectsUnconnected(t *testing.T) {
	l := NewLibrary(rules.CNFET)
	nand := l.MustGet("NAND2_1X")
	ckt := spice.New()
	err := l.Instantiate(ckt, "u1", nand, map[string]string{"A": "in", "OUT": "out"})
	if err == nil || !strings.Contains(err.Error(), "unconnected") {
		t.Fatalf("expected unconnected-net error, got %v", err)
	}
}

func TestNAND2TruthTableAtSpiceLevel(t *testing.T) {
	l := NewLibrary(rules.CNFET)
	nand := l.MustGet("NAND2_1X")
	cases := []struct {
		a, b string
		want float64
	}{
		{"0", "0", 1}, {"VDD", "0", 1}, {"0", "VDD", 1}, {"VDD", "VDD", 0},
	}
	for _, cse := range cases {
		ckt := spice.New()
		ckt.AddV("vdd", "VDD", "0", spice.DC(device.Vdd))
		if err := l.Instantiate(ckt, "u1", nand, map[string]string{
			"A": cse.a, "B": cse.b, "OUT": "out",
		}); err != nil {
			t.Fatal(err)
		}
		x, err := ckt.OP()
		if err != nil {
			t.Fatalf("OP(%s,%s): %v", cse.a, cse.b, err)
		}
		v := x[ckt.Node("out")-1]
		if cse.want == 1 && v < 0.9 || cse.want == 0 && v > 0.1 {
			t.Fatalf("NAND(%s,%s) = %.3f, want %v", cse.a, cse.b, v, cse.want)
		}
	}
}

func TestSensitizingVector(t *testing.T) {
	l := NewLibrary(rules.CNFET)
	aoi := l.MustGet("AOI21_1X")
	env, err := sensitizingVector(aoi.Gate.PullDown, aoi.Gate.Inputs, "A")
	if err != nil {
		t.Fatal(err)
	}
	// For AB+C, toggling A matters iff B=1 and C=0.
	if !env["B"] || env["C"] {
		t.Fatalf("sensitizing vector for A = %v, want B=1 C=0", env)
	}
}

func TestCharacterizeInverter(t *testing.T) {
	l := NewLibrary(rules.CNFET)
	inv := l.MustGet("INV_1X")
	tm := refPoint(t, l, inv, "A")
	// The CNFET inverter at optimal pitch: FO4-class delay in single-digit
	// picoseconds territory.
	if tm.DelayS < 1e-12 || tm.DelayS > 20e-12 {
		t.Fatalf("INV_1X delay = %.2fps, implausible", tm.DelayS*1e12)
	}
	if tm.EnergyJ <= 0 {
		t.Fatalf("energy = %v, want positive", tm.EnergyJ)
	}
}

func TestCNFETFasterAndSmallerThanCMOS(t *testing.T) {
	cn := NewLibrary(rules.CNFET)
	cm := NewLibrary(rules.CMOS)
	tCN := refPoint(t, cn, cn.MustGet("INV_1X"), "A")
	tCM := refPoint(t, cm, cm.MustGet("INV_1X"), "A")
	gain := tCM.DelayS / tCN.DelayS
	if gain < 2 {
		t.Fatalf("CNFET/CMOS inverter delay gain = %.2f, want > 2", gain)
	}
	// Area: ~1.4x gain at unit size (case study 1).
	aCN := cn.Area(cn.MustGet("INV_1X"), layout.Scheme1)
	aCM := cm.Area(cm.MustGet("INV_1X"), layout.Scheme1)
	if aCM/aCN < 1.1 {
		t.Fatalf("CMOS/CNFET inverter area ratio = %.2f, want > 1.1", aCM/aCN)
	}
}

func TestInputCapGrowsWithDrive(t *testing.T) {
	l := NewLibrary(rules.CNFET)
	c1 := l.InputCap(l.MustGet("INV_1X"), "A")
	c4 := l.InputCap(l.MustGet("INV_4X"), "A")
	if c4 <= c1 {
		t.Fatalf("input cap must grow with drive: %v vs %v", c1, c4)
	}
	if c1 <= 0 {
		t.Fatal("input cap must be positive")
	}
}

func TestScheme2CollapsesCellHeight(t *testing.T) {
	// Scheme 2's per-cell area is not necessarily smaller (the networks
	// sit side by side), but its height collapses to the strip height —
	// the property that lets the placer pack un-normalized cells and win
	// the ~1.6x of case study 2.
	l := NewLibrary(rules.CNFET)
	c := l.MustGet("INV_9X")
	s1 := c.Layout.Assemble(layout.Scheme1)
	s2 := c.Layout.Assemble(layout.Scheme2)
	if s2.Height >= s1.Height/2 {
		t.Fatalf("scheme2 height %vλ should be well under scheme1 %vλ",
			s2.Height.Lambdas(), s1.Height.Lambdas())
	}
	if l.Area(c, layout.Scheme1) != s1.Area() {
		t.Fatal("Area() disagrees with Assemble()")
	}
}

// TestDatasheetAllCells characterizes every cell's input A at the
// reference point: the library datasheet.
func TestDatasheetAllCells(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes the whole library")
	}
	l := NewLibrary(rules.CNFET)
	byName := map[string]Timing{}
	for _, name := range l.Names() {
		r := refPoint(t, l, l.MustGet(name), "A")
		if r.DelayS <= 0 || r.EnergyJ <= 0 {
			t.Fatalf("%s: non-positive characterization %+v", r.Cell, r)
		}
		byName[r.Cell] = r
	}
	// Higher drive of the same cell at the same load is faster.
	if byName["INV_4X"].DelayS >= byName["INV_1X"].DelayS {
		t.Fatalf("INV_4X (%.2fps) should beat INV_1X (%.2fps) at the same load",
			byName["INV_4X"].DelayS*1e12, byName["INV_1X"].DelayS*1e12)
	}
	// Series stacks are slower than the inverter at equal drive.
	if byName["NAND3_1X"].DelayS <= byName["INV_1X"].DelayS {
		t.Fatal("NAND3 should be slower than INV at equal drive")
	}
}

func TestCMOSLibraryInstantiation(t *testing.T) {
	l := NewLibrary(rules.CMOS)
	nand := l.MustGet("NAND2_1X")
	ckt := spice.New()
	ckt.AddV("vdd", "VDD", "0", spice.DC(device.Vdd))
	if err := l.Instantiate(ckt, "u1", nand, map[string]string{
		"A": "VDD", "B": "VDD", "OUT": "out",
	}); err != nil {
		t.Fatal(err)
	}
	x, err := ckt.OP()
	if err != nil {
		t.Fatal(err)
	}
	if v := x[ckt.Node("out")-1]; v > 0.1 {
		t.Fatalf("CMOS NAND(1,1) = %v, want 0", v)
	}
	// CMOS PUN devices must be wider than PDN (the 1.4 ratio shows in
	// input capacitance through the p-device share).
	if l.InputCap(nand, "A") <= 0 {
		t.Fatal("input cap must be positive")
	}
}

func TestCharacterizeUnsensitizableInput(t *testing.T) {
	l := NewLibrary(rules.CNFET)
	inv := l.MustGet("INV_1X")
	if _, err := l.Characterize(context.Background(), inv, "Z", []float64{DefaultSlewS}, []float64{1e-15}); err == nil {
		t.Fatal("characterizing a nonexistent pin must fail")
	}
}

// TestCharacterizeGridMatchesPointSolves pins the grid characterizer
// against independent one-point solves: threading one workspace through
// the grid must reproduce every point bit for bit (same circuits, same
// plan, deterministic arithmetic).
func TestCharacterizeGridMatchesPointSolves(t *testing.T) {
	l := NewLibrary(rules.CNFET)
	c := l.MustGet("NAND2_1X")
	ref := l.ReferenceLoad()
	slews := []float64{DefaultSlewS, 40e-12}
	loads := []float64{ref * 0.5, ref, ref * 2}

	grid, err := l.Characterize(context.Background(), c, "A", slews, loads)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != len(slews) {
		t.Fatalf("grid rows = %d, want %d", len(grid), len(slews))
	}
	for si, slew := range slews {
		if len(grid[si]) != len(loads) {
			t.Fatalf("row %d has %d points, want %d", si, len(grid[si]), len(loads))
		}
		for li, load := range loads {
			one, err := l.Characterize(context.Background(), c, "A", []float64{slew}, []float64{load})
			if err != nil {
				t.Fatal(err)
			}
			if grid[si][li] != one[0][0] {
				t.Fatalf("point (%d, %d): grid %+v != independent solve %+v", si, li, grid[si][li], one[0][0])
			}
		}
	}
}

// TestCharacterizeRejectsBadAxes: an empty or non-positive slew or load
// axis is a typed error, never a nil grid or a silent default.
func TestCharacterizeRejectsBadAxes(t *testing.T) {
	l := NewLibrary(rules.CNFET)
	inv := l.MustGet("INV_1X")
	ok := []float64{DefaultSlewS}
	load := []float64{l.ReferenceLoad()}
	for name, axes := range map[string][2][]float64{
		"nil loads":      {ok, nil},
		"empty loads":    {ok, {}},
		"empty slews":    {{}, load},
		"zero load":      {ok, {0}},
		"negative slew":  {{-1e-12}, load},
		"NaN load":       {ok, {math.NaN()}},
		"later bad load": {ok, {load[0], -load[0]}},
	} {
		grid, err := l.Characterize(context.Background(), inv, "A", axes[0], axes[1])
		if !errors.Is(err, ErrBadAxis) || grid != nil {
			t.Errorf("%s: got (%v, %v), want (nil, ErrBadAxis)", name, grid, err)
		}
	}
}

// refPoint characterizes one arc at the reference point: the 5 ps edge
// into the library's reference load.
func refPoint(t *testing.T, l *Library, c *Cell, input string) Timing {
	t.Helper()
	grid, err := l.Characterize(context.Background(), c, input, []float64{DefaultSlewS}, []float64{l.ReferenceLoad()})
	if err != nil {
		t.Fatal(err)
	}
	return grid[0][0]
}
