package flow

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"cnfetdk/internal/cells"
	"cnfetdk/internal/spice"
	"cnfetdk/internal/synth"
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

// delayBench builds a registry circuit's delay testbench on lib as
// runDelay does, with wire as the net loads.
func delayBench(t *testing.T, k *Kit, circuit string, lib *cells.Library, wire map[string]float64) (*spice.Circuit, *synth.Netlist, stimArcs) {
	t.Helper()
	c, err := LookupCircuit(circuit)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	arcs, err := stimArcsOf(nl, c.Stimulus)
	if err != nil {
		t.Fatal(err)
	}
	ckt, _, err := k.BuildCircuit(lib, nl, wire)
	if err != nil {
		t.Fatal(err)
	}
	addStimulus(ckt, c.Stimulus)
	return ckt, nl, arcs
}

// samplesOf is r cut to its first n samples.
func samplesOf(r *spice.Result, n int) *spice.Result {
	p := *r
	p.Times = r.Times[:n]
	p.V = make([][]float64, len(r.V))
	for i, w := range r.V {
		p.V[i] = w[:n]
	}
	return &p
}

// TestDelayTransientStopsWhenDecided: stimProbes ends the full adder's
// delay transient on the first step on which its delay is decided, in
// the window's first two thirds, and the delay is the whole window's
// bit for bit.
func TestDelayTransientStopsWhenDecided(t *testing.T) {
	if testing.Short() {
		t.Skip("transient-heavy")
	}
	k := kit(t)
	for _, lib := range []*cells.Library{k.CMOS, k.CNFET} {
		ckt, _, arcs := delayBench(t, k, "fulladder", lib, nil)
		stopped, err := ckt.Transient(context.Background(), nil, delayWindow, delaySteps, stimProbes(arcs))
		if err != nil {
			t.Fatal(err)
		}
		n := len(stopped.Times)
		if n > delaySteps*2/3 {
			t.Fatalf("%s: the delay transient ran %d of %d steps", lib.Tech, n-1, delaySteps)
		}
		if _, _, ok := arcs.delay(samplesOf(stopped, n-1)); ok {
			t.Fatalf("%s: stopped after step %d, but the delay was decided a step earlier", lib.Tech, n-1)
		}
		got, err := measureStimDelay(stopped, arcs)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := ckt.Transient(context.Background(), nil, delayWindow, delaySteps, spice.Probes{Nodes: arcs.nodes})
		if err != nil {
			t.Fatal(err)
		}
		want, err := measureStimDelay(whole, arcs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: stopped after step %d the delay reads %v, the whole window %v", lib.Tech, n-1, got, want)
		}
	}
}

// TestDelayNeverCrossingRunsWholeWindow: an output too heavily loaded
// to cross mid-rail keeps the stop test false, so its transient runs
// the whole window, and the delay stage fails as the request's fault,
// naming the output and the 5 ns window.
func TestDelayNeverCrossingRunsWholeWindow(t *testing.T) {
	k := kit(t)
	c, err := LookupCircuit("mux2")
	if err != nil {
		t.Fatal(err)
	}
	nl, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	out := nl.Outputs[0]
	wire := map[string]float64{out: 1e-12}
	ckt, _, arcs := delayBench(t, k, "mux2", k.CNFET, wire)
	r, err := ckt.Transient(context.Background(), nil, delayWindow, delaySteps, stimProbes(arcs))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Times) != delaySteps+1 {
		t.Fatalf("the transient stopped after step %d of %d without a delay", len(r.Times)-1, delaySteps)
	}
	_, err = k.runDelay(context.Background(), k.CNFET, nl, wire, c.Stimulus)
	var ce *spice.CrossingError
	if !errors.Is(err, ErrBadRequest) || !errors.As(err, &ce) || ce.Node != out ||
		!strings.Contains(err.Error(), "output "+out+" does not cross mid-rail inside the 5 ns delay window") {
		t.Fatalf("err = %v, want ErrBadRequest wrapping %s's *spice.CrossingError in the 5 ns window", err, out)
	}
}
