package flow

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"cnfetdk/internal/gdsii"
	"cnfetdk/internal/immunity"
	"cnfetdk/internal/logic"
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
	// inline wraps instance lines into a netlist over inputs A B C and
	// output Y.
	inline := func(body string) string {
		return "module x\ninput A B C\noutput Y\n" + body + "\nendmodule\n"
	}
	// Validate, the check Kit.Run makes before its first stage, rejects
	// every one of these: no stage runs.
	cases := []struct {
		name string
		req  Request
		want error
	}{
		{"unknown circuit", Request{Circuit: "nonesuch"}, ErrUnknownCircuit},
		{"unknown tech", Request{Circuit: "mux2", Techs: []string{"finfet"}}, ErrUnknownTech},
		{"unknown analysis", Request{Circuit: "mux2", Analyses: []Analysis{"power"}}, ErrUnknownAnalysis},
		{"unknown placement", Request{Circuit: "mux2", Placement: "spiral"}, ErrUnknownPlacement},
		{"no source", Request{}, ErrBadRequest},
		{"two sources", Request{Circuit: "mux2", Netlist: "module x\nendmodule"}, ErrBadRequest},
		{"unparsable expression", Request{Exprs: map[string]string{"Y": "A+"}}, ErrBadRequest},
		{"unparsable netlist", Request{Netlist: "module x\nu1 INV_1X A\nendmodule"}, ErrBadRequest},
		{"delay without stimulus", Request{
			Netlist:  "module x\ninput A\noutput Y\nu1 INV_1X A=A OUT=Y\nendmodule",
			Analyses: []Analysis{AnalysisDelay},
		}, ErrBadRequest},
		{"energy without stimulus", Request{
			Exprs:    map[string]string{"Y": "A*B"},
			Analyses: []Analysis{AnalysisEnergy},
		}, ErrBadRequest},
		{"registry stimulus without pulse", Request{
			Circuit: "mux2", Stimulus: &Stimulus{Static: map[string]bool{"S": true}},
			Analyses: []Analysis{AnalysisDelay},
		}, ErrBadRequest},
		{"pulse not an expression input", Request{
			Exprs:    map[string]string{"Y": "A*B"},
			Stimulus: &Stimulus{Static: map[string]bool{"B": true}, Pulse: "C"},
			Analyses: []Analysis{AnalysisDelay},
		}, ErrBadRequest},
		{"static not a netlist input", Request{
			Netlist:  "module x\ninput A\noutput Y\nu1 INV_1X A=A OUT=Y\nendmodule",
			Stimulus: &Stimulus{Static: map[string]bool{"B": true}, Pulse: "A"},
			Analyses: []Analysis{AnalysisDelay},
		}, ErrBadRequest},
		{"expression input not covered", Request{
			Exprs:    map[string]string{"Y": "A*B", "Z": "C"},
			Stimulus: &Stimulus{Static: map[string]bool{"B": true}, Pulse: "A"},
			Analyses: []Analysis{AnalysisDelay},
		}, ErrBadRequest},
		// A registry circuit's caller-supplied stimulus is checked
		// against the circuit's ports.
		{"registry stimulus names a missing input", Request{
			Circuit: "mux2", Techs: []string{"cnfet"}, Stimulus: &Stimulus{Pulse: "Q"},
			Analyses: []Analysis{AnalysisDelay},
		}, ErrBadRequest},
		{"registry stimulus leaves an input out", Request{
			Circuit: "mux2", Stimulus: &Stimulus{Static: map[string]bool{"D0": true}, Pulse: "S"},
			Analyses: []Analysis{AnalysisEnergy},
		}, ErrBadRequest},
		{"immunity without cnfet", Request{
			Circuit: "mux2", Techs: []string{"cmos"},
			Analyses: []Analysis{AnalysisImmunity},
		}, ErrBadRequest},
		// An inline netlist is admitted only when valid as a whole.
		{"netlist cell unknown", Request{Netlist: inline("u1 FOO_1X A=A OUT=Y")}, ErrBadRequest},
		{"netlist drive missing", Request{Netlist: inline("u1 NAND3_4X A=A B=B C=C OUT=Y")}, ErrBadRequest},
		{"netlist pin unbound", Request{Netlist: inline("u1 NAND2_1X A=A OUT=Y")}, ErrBadRequest},
		{"netlist OUT unbound", Request{Netlist: inline("u1 INV_1X A=A")}, ErrBadRequest},
		{"netlist loop", Request{Netlist: inline("u1 NAND2_1X A=A B=Y OUT=Y")}, ErrBadRequest},
		{"netlist loop for energy", Request{
			Netlist:  inline("u1 NAND2_1X A=A B=Y OUT=Y"),
			Stimulus: &Stimulus{Static: map[string]bool{"B": true, "C": true}, Pulse: "A"},
			Analyses: []Analysis{AnalysisEnergy},
		}, ErrBadRequest},
		{"netlist net driven twice", Request{Netlist: inline("u1 INV_1X A=A OUT=Y\nu2 INV_1X A=B OUT=Y")}, ErrBadRequest},
		{"netlist drives an input", Request{Netlist: inline("u1 INV_1X A=A OUT=B\nu2 INV_1X A=C OUT=Y")}, ErrBadRequest},
		{"netlist output undriven", Request{Netlist: inline("u1 INV_1X A=A OUT=n1")}, ErrBadRequest},
		{"netlist instance named twice", Request{Netlist: inline("u1 INV_1X A=A OUT=n1\nu1 INV_1X A=n1 OUT=Y")}, ErrBadRequest},
		{"implausible wire cap", Request{Circuit: "mux2", WireCapPerNM: 1e308}, ErrBadRequest},
		{"negative wire cap", Request{Circuit: "mux2", WireCapPerNM: -1e-15}, ErrBadRequest},
		{"NaN wire cap", Request{Circuit: "mux2", WireCapPerNM: math.NaN()}, ErrBadRequest},
		{"infinite wire cap", Request{Circuit: "mux2", WireCapPerNM: math.Inf(1)}, ErrBadRequest},
	}
	for _, tc := range cases {
		before := k.CacheLen()
		if _, err := k.Run(ctx, tc.req); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if after := k.CacheLen(); after != before {
			t.Errorf("%s: a stage ran (%d -> %d cache entries)", tc.name, before, after)
		}
		if err := tc.req.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("%s: Validate = %v, want %v", tc.name, err, tc.want)
		}
	}
	// The bound is inclusive, and 0 still means the default.
	for _, c := range []float64{0, MaxWireCapPerNM} {
		if err := (&Request{Circuit: "mux2", WireCapPerNM: c}).Validate(); err != nil {
			t.Errorf("wire cap %g: %v", c, err)
		}
	}
}

// TestRunProvesWideExpressions: the netlist stage proves an inline
// expression of any width its node budget allows, past the 64 inputs a
// vector count can hold.
func TestRunProvesWideExpressions(t *testing.T) {
	k := kit(t)
	for _, bits := range []int{63, 64, 70} {
		res, err := k.Run(context.Background(), Request{
			Exprs: map[string]string{"Y": wideOr(bits)},
			Techs: []string{"cnfet"},
		})
		if err != nil || len(res.Inputs) != bits {
			t.Errorf("%d inputs: err = %v", bits, err)
		}
	}
}

// sumOfProducts renders A00 B00+A01 B01+... with n terms over 2n inputs:
// under the sorted (all A before all B) variable order, its BDD doubles
// with every term.
func sumOfProducts(n int) string {
	terms := make([]string, n)
	for i := range terms {
		terms[i] = fmt.Sprintf("A%02d B%02d", i, i)
	}
	return strings.Join(terms, "+")
}

// TestRunBoundsTheProof: a sum of products whose BDD outgrows the node
// budget is the request's fault, named by output and budget; and the
// stage watchdog stops a proof mid-way. The deadline reaches the stage
// through a timer goroutine, which on a single processor waits up to the
// runtime's ~10 ms preemption, a third of this proof; two processors
// let it run at once.
func TestRunBoundsTheProof(t *testing.T) {
	req := Request{Exprs: map[string]string{"Y": sumOfProducts(16)}, Techs: []string{"cnfet"}}
	_, err := kit(t).Run(context.Background(), req)
	if !errors.Is(err, ErrBadRequest) || !errors.Is(err, logic.ErrNodeBudget) ||
		!strings.Contains(err.Error(), `output "Y"`) || !strings.Contains(err.Error(), "131072 nodes") {
		t.Fatalf("err = %v, want ErrBadRequest wrapping logic.ErrNodeBudget for Y at 131072 nodes", err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	k, err := New(context.Background(), WithStageTimeout(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	var ste *pipeline.StageTimeoutError
	if _, err := k.Run(context.Background(), req); !errors.As(err, &ste) || ste.Stage != "netlist" {
		t.Fatalf("err = %v, want the netlist stage's StageTimeoutError", err)
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
// nldm characterization, the delay transient and the vardelay ensemble
// honour their stage context, so a 1 ms bound kills each job, and a
// killed stage leaves no cache entry: the cache holds one entry per
// stage that finished. The deadline reaches a stage through a timer
// goroutine, which waits for a free processor up to the runtime's ~10 ms
// preemption, so each job holds tens of milliseconds of solver work.
func TestKitStageWatchdog(t *testing.T) {
	for name, req := range map[string]Request{
		"sta":      {Circuit: "fulladder", Analyses: []Analysis{AnalysisSTA}},
		"delay":    {Circuit: "fulladder", Analyses: []Analysis{AnalysisDelay}},
		"vardelay": {Circuit: "mux2", Techs: []string{"cnfet"}, Analyses: []Analysis{AnalysisDelay}, CNTCountCV: 0.2},
	} {
		t.Run(name, func(t *testing.T) {
			var trace pipeline.Trace
			k, err := New(context.Background(), WithStageTimeout(time.Millisecond), WithTrace(&trace))
			if err != nil {
				t.Fatal(err)
			}
			_, err = k.Run(context.Background(), req)
			var ste *pipeline.StageTimeoutError
			if !errors.As(err, &ste) {
				t.Fatalf("err = %v, want a *pipeline.StageTimeoutError", err)
			}
			finished := 0
			for _, r := range trace.Reports() {
				if r.Err == nil {
					finished++
				}
			}
			if n := k.CacheLen(); n != finished {
				t.Errorf("cache holds %d entries for %d finished stages: a killed stage left one", n, finished)
			}
		})
	}
}

// TestKitStageWatchdogStopsTransients: the solver reads its stage's
// deadline off the clock, so a 1 ms watchdog stops mux2's delay and
// vardelay transients (~10 ms each) on one processor too, where the
// watchdog's timer waits for the solver to yield. Every run fails
// typed, and no stopped stage reaches the cache.
func TestKitStageWatchdogStopsTransients(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var trace pipeline.Trace
	k, err := New(context.Background(), WithStageTimeout(time.Millisecond), WithTrace(&trace))
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Circuit: "mux2", Techs: []string{"cnfet"}, Analyses: []Analysis{AnalysisDelay}, CNTCountCV: 0.2, VarSamples: 1}
	stopped := map[string]bool{}
	for i := 0; i < 50; i++ {
		from := len(trace.Reports())
		if _, err := k.Run(context.Background(), req); !errors.Is(err, pipeline.ErrStageTimeout) {
			t.Fatalf("run %d: err = %v, want pipeline.ErrStageTimeout", i, err)
		}
		clear(stopped)
		for _, r := range trace.Reports()[from:] {
			stopped[r.Stage] = errors.Is(r.Err, pipeline.ErrStageTimeout)
		}
	}
	// By the last run every stage before the transients is cached.
	if !stopped["delay/cnfet"] || !stopped["vardelay/cnfet"] {
		t.Fatalf("last run's watchdog verdicts %v, want both transients stopped", stopped)
	}
	finished := map[string]bool{}
	for _, r := range trace.Reports() {
		if r.Err == nil {
			finished[r.Stage] = true
		}
	}
	if n := k.CacheLen(); n != len(finished) {
		t.Errorf("cache holds %d entries for %d finished stages: a stopped stage left one", n, len(finished))
	}
}

// TestKitStageWatchdogStopsCertificate: the critical-line certificate
// honours the stage context, so a 1 ms watchdog kills a cold immunity
// stage, and no cut-short certificate reaches the cache: a cell's entry
// is either absent or its full verdict. The deadline reaches the stage
// through a timer goroutine, which waits for a free processor, up to the
// runtime's ~10 ms preemption while every processor runs a certificate
// loop; a design whose certificates all finish inside that wait passes
// the stage. So the design is one instance of every CNFET library cell:
// ~77 ms of certificates on a 2-core host, well past the wait on every
// worker at any GOMAXPROCS.
func TestKitStageWatchdogStopsCertificate(t *testing.T) {
	ctx := context.Background()
	k, err := New(ctx, WithStageTimeout(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	names := k.CNFET.Names()
	nl := &synth.Netlist{Name: "allcells"}
	inputs := map[string]bool{}
	for i, name := range names {
		cell, err := k.CNFET.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		conns := map[string]string{"OUT": fmt.Sprintf("Y%d", i)}
		for _, in := range cell.Inputs() {
			conns[in] = in
			inputs[in] = true
		}
		nl.Instances = append(nl.Instances, synth.Instance{Name: fmt.Sprintf("u%d", i), Cell: name, Conns: conns})
		nl.Outputs = append(nl.Outputs, conns["OUT"])
	}
	nl.Inputs = slices.Sorted(maps.Keys(inputs))
	var text strings.Builder
	if err := nl.Format(&text); err != nil {
		t.Fatal(err)
	}
	_, err = k.Run(ctx, Request{Netlist: text.String(), Techs: []string{"cnfet"}, Analyses: []Analysis{AnalysisImmunity}})
	if !errors.Is(err, pipeline.ErrStageTimeout) {
		t.Fatalf("err = %v, want pipeline.ErrStageTimeout", err)
	}
	before := k.CacheStats().Mem
	for _, name := range names {
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
