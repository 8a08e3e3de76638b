package flow

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"cnfetdk/internal/gdsii"
	"cnfetdk/internal/immunity"
	"cnfetdk/internal/pipeline"
	"cnfetdk/internal/synth"
)

func TestRunRegistryCircuitsBothTechs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-circuit flow")
	}
	k := kit(t)
	// Four registry circuits across both technologies; the cheap
	// analyses run everywhere, the transistor-level ones on the small
	// circuits.
	cases := []struct {
		circuit  string
		analyses []Analysis
	}{
		{"fulladder", []Analysis{AnalysisArea, AnalysisDelay, AnalysisEnergy, AnalysisImmunity}},
		{"mux2", []Analysis{AnalysisArea, AnalysisDelay, AnalysisEnergy, AnalysisImmunity}},
		{"aoichain4", []Analysis{AnalysisArea, AnalysisDelay, AnalysisEnergy, AnalysisImmunity}},
		{"rca4", []Analysis{AnalysisArea, AnalysisImmunity}},
		{"parity4", []Analysis{AnalysisArea, AnalysisImmunity}},
	}
	for _, tc := range cases {
		res, err := k.Run(context.Background(), Request{Circuit: tc.circuit, Analyses: tc.analyses})
		if err != nil {
			t.Fatalf("%s: %v", tc.circuit, err)
		}
		if res.Instances == 0 || len(res.Techs) != 2 {
			t.Fatalf("%s: instances=%d techs=%d, want >0 and 2", tc.circuit, res.Instances, len(res.Techs))
		}
		cm, cn := res.Techs["cmos"], res.Techs["cnfet"]
		if cm.AreaLam2 <= 0 || cn.AreaLam2 <= 0 {
			t.Fatalf("%s: areas %v/%v, want > 0", tc.circuit, cm.AreaLam2, cn.AreaLam2)
		}
		if g := res.Gains["area"]; g <= 1 {
			t.Errorf("%s: CNFET area gain %.2f, want > 1", tc.circuit, g)
		}
		if cn.Immunity == nil || !cn.Immunity.Immune || cn.Immunity.CellsChecked == 0 {
			t.Errorf("%s: CNFET immunity = %+v, want immune over >0 cells", tc.circuit, cn.Immunity)
		}
		if cm.Immunity != nil {
			t.Errorf("%s: CMOS carries an immunity result", tc.circuit)
		}
		for _, a := range tc.analyses {
			if a != AnalysisDelay {
				continue
			}
			if cn.DelayS <= 0 || cm.DelayS <= cn.DelayS {
				t.Errorf("%s: delays cnfet=%.3g cmos=%.3g, want 0 < cnfet < cmos",
					tc.circuit, cn.DelayS, cm.DelayS)
			}
			if cn.EnergyJ <= 0 || cm.EnergyJ <= cn.EnergyJ {
				t.Errorf("%s: energies cnfet=%.3g cmos=%.3g, want 0 < cnfet < cmos",
					tc.circuit, cn.EnergyJ, cm.EnergyJ)
			}
		}
		if len(res.Stages) == 0 {
			t.Errorf("%s: no stage traces", tc.circuit)
		}
	}
}

func TestRunInlineExprs(t *testing.T) {
	if testing.Short() {
		t.Skip("flow")
	}
	k := kit(t)
	res, err := k.Run(context.Background(), Request{
		Exprs:    map[string]string{"Y": "A*B + !A*C"},
		Name:     "muxlike",
		Techs:    []string{"CNFET"},
		Analyses: []Analysis{AnalysisArea, AnalysisGDS},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Techs["cnfet"]
	if tr.AreaLam2 <= 0 || len(tr.GDS) == 0 {
		t.Fatalf("area=%v gds=%d bytes, want both populated", tr.AreaLam2, len(tr.GDS))
	}
	lib, err := gdsii.Read(bytes.NewReader(tr.GDS))
	if err != nil {
		t.Fatalf("GDS stream unreadable: %v", err)
	}
	if lib.Find("MUXLIKE_S2") == nil {
		t.Fatal("missing top structure MUXLIKE_S2")
	}
}

func TestRunInlineNetlist(t *testing.T) {
	if testing.Short() {
		t.Skip("flow")
	}
	k := kit(t)
	res, err := k.Run(context.Background(), Request{
		Netlist:  "module pair\ninput A B\noutput Y\nu1 NAND2_1X A=A B=B OUT=n1\nu2 INV_1X A=n1 OUT=Y\nendmodule\n",
		Techs:    []string{"cnfet"},
		Stimulus: &Stimulus{Static: map[string]bool{"B": true}, Pulse: "A"},
		Analyses: []Analysis{AnalysisArea, AnalysisDelay},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Circuit != "pair" || res.Techs["cnfet"].DelayS <= 0 {
		t.Fatalf("circuit=%q delay=%v, want pair with positive delay", res.Circuit, res.Techs["cnfet"].DelayS)
	}
}

func TestRunSentinelErrors(t *testing.T) {
	k := kit(t)
	ctx := context.Background()
	cases := []struct {
		name string
		req  Request
		want error
		// inStage marks errors a stage raises; Validate, the check
		// Kit.Run makes before its first stage, rejects all the others.
		inStage bool
	}{
		{"unknown circuit", Request{Circuit: "nonesuch"}, ErrUnknownCircuit, false},
		{"unknown tech", Request{Circuit: "mux2", Techs: []string{"finfet"}}, ErrUnknownTech, false},
		{"unknown analysis", Request{Circuit: "mux2", Analyses: []Analysis{"power"}}, ErrUnknownAnalysis, false},
		{"unknown placement", Request{Circuit: "mux2", Placement: "spiral"}, ErrUnknownPlacement, false},
		{"no source", Request{}, ErrBadRequest, false},
		{"two sources", Request{Circuit: "mux2", Netlist: "module x\nendmodule"}, ErrBadRequest, false},
		{"unparsable expression", Request{Exprs: map[string]string{"Y": "A+"}}, ErrBadRequest, false},
		{"unparsable netlist", Request{Netlist: "module x\nu1 INV_1X A\nendmodule"}, ErrBadRequest, false},
		// Stimulus errors are refused before any stage runs wherever the
		// inputs are known without building the netlist.
		{"delay without stimulus", Request{
			Netlist:  "module x\ninput A\noutput Y\nu1 INV_1X A=A OUT=Y\nendmodule",
			Analyses: []Analysis{AnalysisDelay},
		}, ErrBadRequest, false},
		{"energy without stimulus", Request{
			Exprs:    map[string]string{"Y": "A*B"},
			Analyses: []Analysis{AnalysisEnergy},
		}, ErrBadRequest, false},
		{"registry stimulus without pulse", Request{
			Circuit: "mux2", Stimulus: &Stimulus{Static: map[string]bool{"S": true}},
			Analyses: []Analysis{AnalysisDelay},
		}, ErrBadRequest, false},
		{"pulse not an expression input", Request{
			Exprs:    map[string]string{"Y": "A*B"},
			Stimulus: &Stimulus{Static: map[string]bool{"B": true}, Pulse: "C"},
			Analyses: []Analysis{AnalysisDelay},
		}, ErrBadRequest, false},
		{"static not a netlist input", Request{
			Netlist:  "module x\ninput A\noutput Y\nu1 INV_1X A=A OUT=Y\nendmodule",
			Stimulus: &Stimulus{Static: map[string]bool{"B": true}, Pulse: "A"},
			Analyses: []Analysis{AnalysisDelay},
		}, ErrBadRequest, false},
		{"expression input not covered", Request{
			Exprs:    map[string]string{"Y": "A*B", "Z": "C"},
			Stimulus: &Stimulus{Static: map[string]bool{"B": true}, Pulse: "A"},
			Analyses: []Analysis{AnalysisDelay},
		}, ErrBadRequest, false},
		// A registry circuit's inputs are known only once its netlist
		// is built, so its caller-supplied stimulus is checked there.
		{"registry stimulus names a missing input", Request{
			Circuit: "mux2", Techs: []string{"cnfet"}, Stimulus: &Stimulus{Pulse: "Q"},
			Analyses: []Analysis{AnalysisDelay},
		}, ErrBadRequest, true},
		{"immunity without cnfet", Request{
			Circuit: "mux2", Techs: []string{"cmos"},
			Analyses: []Analysis{AnalysisImmunity},
		}, ErrBadRequest, false},
		// 64 inputs: the exhaustive vector count used to wrap to 0 and
		// pass verification without checking anything.
		{"expression too wide to verify", Request{
			Exprs:    map[string]string{"Y": wideOr(64)},
			Analyses: []Analysis{AnalysisArea},
		}, ErrBadRequest, true},
	}
	for _, tc := range cases {
		if _, err := k.Run(ctx, tc.req); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		err := tc.req.Validate()
		switch {
		case tc.inStage && err != nil:
			t.Errorf("%s: Validate = %v, want nil (a stage rejects it)", tc.name, err)
		case !tc.inStage && !errors.Is(err, tc.want):
			t.Errorf("%s: Validate = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestRunRejectsExpressionsTooWideToVerify: an inline expression is
// verified exhaustively in the netlist stage, so one too wide to count
// its vectors fails there, typed as the request's fault.
func TestRunRejectsExpressionsTooWideToVerify(t *testing.T) {
	k := kit(t)
	for _, bits := range []int{63, 64, 70} {
		_, err := k.Run(context.Background(), Request{
			Exprs: map[string]string{"Y": wideOr(bits)},
			Techs: []string{"cnfet"},
		})
		if !errors.Is(err, ErrBadRequest) || !errors.Is(err, synth.ErrTooManyInputs) {
			t.Errorf("%d inputs: err = %v, want ErrBadRequest wrapping synth.ErrTooManyInputs", bits, err)
		}
	}
}

// wideOr renders the OR of n distinct inputs as expression text.
func wideOr(n int) string {
	terms := make([]string, n)
	for i := range terms {
		terms[i] = fmt.Sprintf("I%d", i)
	}
	return strings.Join(terms, "+")
}

func TestLibForUnknownTech(t *testing.T) {
	k := kit(t)
	if _, err := k.LibFor(99); !errors.Is(err, ErrUnknownTech) {
		t.Fatalf("LibFor(99) err = %v, want ErrUnknownTech", err)
	}
}

func TestRunCancelledContext(t *testing.T) {
	k := kit(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := k.CacheLen()
	_, err := k.Run(ctx, Request{Circuit: "dec2", Analyses: []Analysis{AnalysisArea}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if after := k.CacheLen(); after != before {
		t.Fatalf("cancelled run changed the cache: %d -> %d entries", before, after)
	}
	// The same request under a live context runs clean — no poisoned
	// partial entries survive the cancellation.
	res, err := k.Run(context.Background(), Request{Circuit: "dec2", Analyses: []Analysis{AnalysisArea}})
	if err != nil {
		t.Fatalf("rerun after cancellation: %v", err)
	}
	if res.Techs["cnfet"].AreaLam2 <= 0 {
		t.Fatal("rerun produced no area")
	}
}

// TestKitStageWatchdog: the kit's stage watchdog bounds every job. The
// nldm stage honours its stage context, so a 1 ms bound kills the job.
func TestKitStageWatchdog(t *testing.T) {
	k, err := New(context.Background(), WithStageTimeout(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, err = k.Run(context.Background(), Request{Circuit: "fulladder", Analyses: []Analysis{AnalysisSTA}})
	if !errors.Is(err, pipeline.ErrStageTimeout) {
		t.Fatalf("err = %v, want pipeline.ErrStageTimeout", err)
	}
}

// TestKitStageWatchdogStopsCertificate: the critical-line certificate
// honours the stage context. aoichain4's cold immunity stage certifies
// two cells, AOI21_1X and OAI21_1X, each of which takes a few times the
// watchdog (~2.6 ms on a 2-core host), so a 1 ms watchdog kills the job,
// and no cut-short certificate reaches the cache: a cell's entry is
// either absent or its full verdict (a certificate shorter than the
// watchdog may finish).
func TestKitStageWatchdogStopsCertificate(t *testing.T) {
	ctx := context.Background()
	k, err := New(ctx, WithStageTimeout(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, err = k.Run(ctx, Request{Circuit: "aoichain4", Techs: []string{"cnfet"}, Analyses: []Analysis{AnalysisImmunity}})
	if !errors.Is(err, pipeline.ErrStageTimeout) {
		t.Fatalf("err = %v, want pipeline.ErrStageTimeout", err)
	}
	c, err := LookupCircuit("aoichain4")
	if err != nil {
		t.Fatal(err)
	}
	nl, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, inst := range nl.Instances {
		names[inst.Cell] = true
	}
	before := k.CacheStats().Mem
	for name := range names {
		cell, err := k.CNFET.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := k.certify(ctx, cell)
		if err != nil {
			t.Fatal(err)
		}
		pun, pdn, err := immunity.VerifyImmunity(ctx, cell.Layout)
		if err != nil {
			t.Fatal(err)
		}
		if want := (cellCert{Checked: pun.TubesChecked + pdn.TubesChecked, Bad: pun.BadTubes + pdn.BadTubes}); got != want {
			t.Fatalf("%s: cache holds certificate %+v, want the full %+v", name, got, want)
		}
	}
	if cached := k.CacheStats().Mem.Hits - before.Hits; cached >= int64(len(names)) {
		t.Fatalf("all %d certificates were cached: the watchdog stopped none", cached)
	}
}

func TestRunResultJSONStable(t *testing.T) {
	if testing.Short() {
		t.Skip("flow")
	}
	k := kit(t)
	req := Request{Circuit: "mux2", Analyses: []Analysis{AnalysisArea}}
	res, err := k.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Circuit != res.Circuit || back.Techs["cnfet"].AreaLam2 != res.Techs["cnfet"].AreaLam2 {
		t.Fatal("Result does not round-trip through JSON")
	}
	// Requests round-trip too: the wire format is the API.
	rblob, _ := json.Marshal(req)
	var rback Request
	if err := json.Unmarshal(rblob, &rback); err != nil {
		t.Fatal(err)
	}
	if rback.Circuit != "mux2" || len(rback.Analyses) != 1 {
		t.Fatal("Request does not round-trip through JSON")
	}
}

func TestRunHitsCacheOnRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("flow")
	}
	k := kit(t)
	req := Request{Circuit: "parity4", Analyses: []Analysis{AnalysisArea}}
	if _, err := k.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	res, err := k.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	cachedAny := false
	for _, st := range res.Stages {
		if st.Cached {
			cachedAny = true
		}
	}
	if !cachedAny {
		t.Fatal("repeated run hit no cached stages")
	}

	// The default placement ("") and an explicit "shelves" are the same
	// computation and must share cache entries; a placement change must
	// not invalidate the netlist stage either.
	for _, variant := range []Request{
		{Circuit: "parity4", Placement: "shelves", Analyses: []Analysis{AnalysisArea}},
		{Circuit: "parity4", Placement: "rows", Analyses: []Analysis{AnalysisArea}},
	} {
		vres, err := k.Run(context.Background(), variant)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range vres.Stages {
			if st.Stage == "netlist" && !st.Cached {
				t.Errorf("placement %q recomputed the netlist stage", variant.Placement)
			}
			if variant.Placement == "shelves" && !st.Cached {
				t.Errorf("explicit shelves recomputed stage %s despite the default-placement run", st.Stage)
			}
		}
	}
}

// TestLibertyRendersNLDMStage: the liberty stage renders the nldm
// stage's model instead of characterizing the cells again, so after an
// sta run the liberty run finds the grid cached, and its text equals a
// liberty-only run's.
func TestLibertyRendersNLDMStage(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes the mux2 cells")
	}
	ctx := context.Background()
	libertyReq := Request{Circuit: "mux2", Techs: []string{"cnfet"}, Analyses: []Analysis{AnalysisLiberty}}
	k, err := New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(ctx, Request{Circuit: "mux2", Techs: []string{"cnfet"}, Analyses: []Analysis{AnalysisSTA}}); err != nil {
		t.Fatal(err)
	}
	res, err := k.Run(ctx, libertyReq)
	if err != nil {
		t.Fatal(err)
	}
	nldmCached := false
	for _, st := range res.Stages {
		if st.Stage == "nldm/cnfet" {
			nldmCached = st.Cached
		}
	}
	if !nldmCached {
		t.Fatalf("liberty after sta recomputed or skipped the nldm/cnfet stage: %+v", res.Stages)
	}

	fresh, err := New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := fresh.Run(ctx, libertyReq)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Techs["cnfet"].Liberty, alone.Techs["cnfet"].Liberty; got != want || got == "" {
		t.Fatal("liberty text after an sta run differs from a liberty-only run")
	}
}
