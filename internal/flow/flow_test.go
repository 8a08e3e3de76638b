package flow

import (
	"bytes"
	"context"
	"testing"

	"cnfetdk/internal/gdsii"
	"cnfetdk/internal/layout"
	"cnfetdk/internal/place"
	"cnfetdk/internal/synth"
)

var kitCache *Kit

func kit(t *testing.T) *Kit {
	t.Helper()
	if kitCache == nil {
		k, err := New(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		kitCache = k
	}
	return kitCache
}

func TestCaseStudy2FullAdder(t *testing.T) {
	if testing.Short() {
		t.Skip("transient-heavy")
	}
	k := kit(t)
	ctx := context.Background()
	// The scheme-2 job carries the delay/energy comparison; a scheme-1
	// area job completes the paper's three-placement table.
	s2, err := k.Run(ctx, Request{
		Circuit:  "fulladder",
		Analyses: []Analysis{AnalysisArea, AnalysisDelay, AnalysisEnergy},
	})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := k.Run(ctx, Request{
		Circuit: "fulladder", Techs: []string{"cnfet"}, Placement: "rows",
		Analyses: []Analysis{AnalysisArea},
	})
	if err != nil {
		t.Fatal(err)
	}
	cm, cn, cn1 := s2.Techs["cmos"], s2.Techs["cnfet"], s1.Techs["cnfet"]
	delayGain, energyGain := cm.DelayS/cn.DelayS, cm.EnergyJ/cn.EnergyJ
	areaGainS1, areaGainS2 := cm.AreaLam2/cn1.AreaLam2, cm.AreaLam2/cn.AreaLam2
	t.Logf("FA delay: CNFET %.1fps CMOS %.1fps gain %.2fx (paper ~3.5x)",
		cn.DelayS*1e12, cm.DelayS*1e12, delayGain)
	t.Logf("FA energy: CNFET %.3ffJ CMOS %.3ffJ gain %.2fx (paper ~1.5x)",
		cn.EnergyJ*1e15, cm.EnergyJ*1e15, energyGain)
	t.Logf("FA area: CMOS %.0f λ², scheme1 %.0f λ² (%.2fx), scheme2 %.0f λ² (%.2fx)",
		cm.AreaLam2, cn1.AreaLam2, areaGainS1, cn.AreaLam2, areaGainS2)

	if g := delayGain; g < 2.5 || g > 5 {
		t.Fatalf("FA delay gain = %.2f, want ~3.5 (2.5..5)", g)
	}
	if g := energyGain; g < 1.2 || g > 2.6 {
		t.Fatalf("FA energy gain = %.2f, want >1 (paper 1.5)", g)
	}
	if g := areaGainS1; g < 1.15 {
		t.Fatalf("scheme-1 area gain = %.2f, want ~1.4", g)
	}
	if areaGainS2 <= areaGainS1 {
		t.Fatal("scheme 2 must beat scheme 1 on area")
	}
	if cn.Utilization <= cn1.Utilization {
		t.Fatal("scheme 2 must have better utilization")
	}
}

func TestBuildCircuitUnknownCell(t *testing.T) {
	k := kit(t)
	nl := &synth.Netlist{
		Name:      "bad",
		Instances: []synth.Instance{{Name: "u1", Cell: "FOO_1X", Conns: map[string]string{}}},
	}
	if _, _, err := k.BuildCircuit(k.CNFET, nl, nil); err == nil {
		t.Fatal("unknown cell must fail")
	}
}

func TestCellAreaGainDeclines(t *testing.T) {
	k := kit(t)
	g1, err := k.CellAreaGain(1)
	if err != nil {
		t.Fatal(err)
	}
	g9, err := k.CellAreaGain(9)
	if err != nil {
		t.Fatal(err)
	}
	if g1 < 1.35 || g1 > 1.45 {
		t.Fatalf("inverter area gain at 1X = %.3f, want ~1.4", g1)
	}
	if g9 >= g1 {
		t.Fatalf("area gain should decline with width: %.3f at 9X vs %.3f at 1X", g9, g1)
	}
}

func TestDriveOf(t *testing.T) {
	cases := map[string]float64{
		"NAND2_2X": 2, "INV_9X": 9, "INV": 1, "AOI21_1X": 1,
	}
	for in, want := range cases {
		if got := driveOf(in); got != want {
			t.Errorf("driveOf(%s) = %v, want %v", in, got, want)
		}
	}
}

func TestExportFullAdderGDS(t *testing.T) {
	k := kit(t)
	nl := synth.FullAdder()
	p, err := place.Shelves(k.CNFET, nl, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePlacementGDS(&buf, k.CNFET, p, "FULLADDER_S2"); err != nil {
		t.Fatal(err)
	}
	lib, err := gdsii.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	top := lib.Find("FULLADDER_S2")
	if top == nil {
		t.Fatal("missing top structure")
	}
	if len(top.SRefs) != len(nl.Instances) {
		t.Fatalf("srefs = %d, want %d", len(top.SRefs), len(nl.Instances))
	}
	// Distinct cells present with geometry on the CNT and gate layers.
	inv := lib.Find("NAND2_2X_scheme2")
	if inv == nil {
		var have []string
		for _, s := range lib.Structures {
			have = append(have, s.Name)
		}
		t.Fatalf("missing NAND2 structure; have %v", have)
	}
	layers := map[int16]bool{}
	for _, b := range inv.Boundaries {
		layers[b.Layer] = true
	}
	for _, want := range []int16{gdsii.LayerCNT, gdsii.LayerGate, gdsii.LayerContact, gdsii.LayerPDope, gdsii.LayerNDope} {
		if !layers[want] {
			t.Errorf("NAND2 structure missing layer %d", want)
		}
	}
}

func TestExportCellDeduplicates(t *testing.T) {
	k := kit(t)
	lib := gdsii.NewLibrary("X")
	c := k.CNFET.MustGet("INV_1X")
	n1 := ExportCell(lib, c, layout.Scheme1)
	n2 := ExportCell(lib, c, layout.Scheme1)
	if n1 != n2 {
		t.Fatal("re-export should return the same structure")
	}
	if len(lib.Structures) != 1 {
		t.Fatalf("structures = %d, want 1", len(lib.Structures))
	}
}
