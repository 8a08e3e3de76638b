package flow

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
)

// TestZeroVariationReproducesGoldens pins the paper's case-study
// numbers and the zero-variation compatibility contract: a request with
// all variation knobs at zero (with or without an explicit ensemble
// size) computes exactly what the pre-variation flow computed — same
// stage keys, same results, byte-identical JSON.
func TestZeroVariationReproducesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("transient-heavy")
	}
	k := kit(t)
	plain := Request{Circuit: "fulladder", Analyses: []Analysis{AnalysisArea, AnalysisDelay}}
	res, err := k.Run(context.Background(), plain)
	if err != nil {
		t.Fatal(err)
	}
	// The PR 5/6 goldens: CMOS full-adder area 22572 λ², delay gain
	// 3.57x. Area is exact (integral λ²); the gain is a deterministic
	// solver output, pinned to 4 decimal places.
	if a := res.Techs["cmos"].AreaLam2; a != 22572 {
		t.Fatalf("CMOS full-adder area = %v λ², want the 22572 golden", a)
	}
	if g := fmt.Sprintf("%.4f", res.Gains["delay"]); g != "3.5733" {
		t.Fatalf("full-adder delay gain = %s, want the 3.5733 golden", g)
	}

	// Explicit zero variation knobs (and a non-zero VarSamples, which
	// only matters when a spread is active) must not change a single
	// byte: same stage keys, same cached results, no ensemble fields.
	withVar := plain
	withVar.VarSamples = 16
	vres, err := k.Run(context.Background(), withVar)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Result{res, vres} {
		r.Stages = nil // execution trace differs (cached flags), outcome must not
	}
	a, _ := json.Marshal(res)
	b, _ := json.Marshal(vres)
	if string(a) != string(b) {
		t.Fatalf("zero-variation result bytes differ:\n%s\n%s", a, b)
	}
	if vres.Techs["cnfet"].VarDelay != nil {
		t.Fatal("zero-variation run grew a delay ensemble")
	}
}

func TestVariationDelayEnsemble(t *testing.T) {
	if testing.Short() {
		t.Skip("transient-heavy")
	}
	k := kit(t)
	req := Request{
		Circuit:         "mux2",
		Techs:           []string{"cnfet", "cmos"},
		Analyses:        []Analysis{AnalysisDelay},
		CNTCountCV:      0.2,
		DiameterSigmaNM: 0.05,
		VarSamples:      4,
		Seed:            3,
	}
	res, err := k.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	vd := res.Techs["cnfet"].VarDelay
	if vd == nil {
		t.Fatal("active spread produced no CNFET delay ensemble")
	}
	if vd.Samples != 4 || vd.MeanS <= 0 || vd.SigmaS <= 0 {
		t.Fatalf("ensemble %+v, want 4 samples with positive mean and sigma", vd)
	}
	if vd.MinS > vd.MeanS || vd.MeanS > vd.MaxS || vd.MinS <= 0 {
		t.Fatalf("ensemble %+v violates 0 < min <= mean <= max", vd)
	}
	// CNT variations are a CNFET phenomenon: the CMOS reference never
	// grows an ensemble.
	if res.Techs["cmos"].VarDelay != nil {
		t.Fatal("CMOS result grew a delay ensemble")
	}

	// Deterministic across a fresh kit (no cache inheritance).
	k2, err := New(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := k2.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if *res2.Techs["cnfet"].VarDelay != *vd {
		t.Fatalf("ensemble not reproducible on a fresh kit:\n%+v\n%+v", vd, res2.Techs["cnfet"].VarDelay)
	}
}

func TestVariationImmunityYield(t *testing.T) {
	if testing.Short() {
		t.Skip("flow")
	}
	k := kit(t)
	res, err := k.Run(context.Background(), Request{
		Circuit:    "mux2",
		Techs:      []string{"cnfet"},
		Analyses:   []Analysis{AnalysisImmunity},
		CNTCountCV: 0.2,
		AlignmentP: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	im := res.Techs["cnfet"].Immunity
	if im == nil || im.Variation == nil {
		t.Fatalf("immunity = %+v, want a composed variation yield", im)
	}
	vy := im.Variation
	if vy.Devices <= 0 || vy.Tubes < vy.Devices {
		t.Fatalf("accounting %+v", vy)
	}
	// The registry cells are immune, so mispositioned tubes never break
	// logic: alignment yield is exactly 1 and the whole yield is the
	// count factor.
	if vy.MeanBreakP != 0 || vy.AlignYield != 1 {
		t.Fatalf("immune design: break_p=%g align=%g, want 0 and 1", vy.MeanBreakP, vy.AlignYield)
	}
	if vy.CountYield <= 0 || vy.CountYield >= 1 {
		t.Fatalf("count yield %g, want in (0, 1) under a 20%% CV", vy.CountYield)
	}
	if vy.FunctionalYield != vy.CountYield*vy.AlignYield {
		t.Fatalf("functional yield %g is not the factor product", vy.FunctionalYield)
	}

	// Without variation knobs the immunity result stays exactly as
	// before — no Variation field at all.
	plain, err := k.Run(context.Background(), Request{
		Circuit: "mux2", Techs: []string{"cnfet"}, Analyses: []Analysis{AnalysisImmunity},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Techs["cnfet"].Immunity.Variation != nil {
		t.Fatal("zero-variation immunity grew a Variation field")
	}
}

func TestVariationRequestValidation(t *testing.T) {
	k := kit(t)
	ctx := context.Background()
	bad := []Request{
		{Circuit: "mux2", CNTCountCV: -0.1},
		{Circuit: "mux2", DiameterSigmaNM: -1},
		{Circuit: "mux2", AlignmentP: 1.5},
		{Circuit: "mux2", VarSamples: -1},
		{Circuit: "mux2", VarSamples: MaxVarSamples + 1},
	}
	for _, req := range bad {
		if _, err := k.Run(ctx, req); err == nil {
			t.Errorf("request %+v passed validation", req)
		}
	}
}
