package sweep

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"cnfetdk/internal/flow"
)

var (
	kitOnce sync.Once
	kitVal  *flow.Kit
	kitErr  error
)

func testKit(t testing.TB) *flow.Kit {
	t.Helper()
	kitOnce.Do(func() { kitVal, kitErr = flow.New(context.Background()) })
	if kitErr != nil {
		t.Fatal(kitErr)
	}
	return kitVal
}

func TestExpandCrossProduct(t *testing.T) {
	spec := Spec{
		Base: flow.Request{Analyses: []flow.Analysis{flow.AnalysisArea}},
		Axes: Axes{
			Circuits:   []string{"mux2", "dec2"},
			TechSets:   []string{"cnfet", "cnfet,cmos"},
			Placements: []string{"rows", "shelves"},
		},
	}
	pts, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("expanded %d points, want 8", len(pts))
	}
	// Canonical order: circuit varies slowest, placement fastest.
	want0 := "circuit=mux2 techs=cnfet placement=rows"
	if pts[0].ID != want0 {
		t.Errorf("point 0 id = %q, want %q", pts[0].ID, want0)
	}
	if pts[1].ID != "circuit=mux2 techs=cnfet placement=shelves" {
		t.Errorf("point 1 id = %q", pts[1].ID)
	}
	last := pts[7]
	if last.Request.Circuit != "dec2" || last.Request.Placement != "shelves" || len(last.Request.Techs) != 2 {
		t.Errorf("last point request = %+v", last.Request)
	}
	if last.Params["circuit"] != "dec2" || last.Params["techs"] != "cnfet,cmos" {
		t.Errorf("last point params = %v", last.Params)
	}
	for i, p := range pts {
		if p.Index != i {
			t.Fatalf("point %d carries index %d", i, p.Index)
		}
	}
}

func TestExpandZip(t *testing.T) {
	spec := Spec{
		Base: flow.Request{Circuit: "mux2", Techs: []string{"cnfet"}},
		Axes: Axes{
			MCTubes: []int{16, 32, 64},
			Seeds:   []int64{1, 2, 3},
		},
		Zip: true,
	}
	pts, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("zipped to %d points, want 3", len(pts))
	}
	if pts[1].Request.MCTubes != 32 || pts[1].Request.Seed != 2 {
		t.Errorf("zip pairing broken: %+v", pts[1].Request)
	}

	spec.Axes.Seeds = []int64{1, 2}
	if _, err := spec.Expand(); err == nil {
		t.Fatal("mismatched zip lengths must fail")
	}
}

// TestExpandValidatesAndCaps: Expand validates every point, and only
// Admit caps the expansion.
func TestExpandValidatesAndCaps(t *testing.T) {
	bad := Spec{Base: flow.Request{}, Axes: Axes{Circuits: []string{"nonesuch"}}}
	if _, err := bad.Expand(); !errors.Is(err, flow.ErrUnknownCircuit) {
		t.Fatalf("unknown circuit error = %v, want ErrUnknownCircuit", err)
	}
	huge := Spec{
		Base: flow.Request{Circuit: "mux2"},
		Axes: Axes{Seeds: []int64{1, 2, 3, 4}},
	}
	if pts, err := huge.Expand(); len(pts) != 4 || err != nil {
		t.Fatalf("Expand = %d points, %v; want all 4 (Expand does not cap)", len(pts), err)
	}
	if _, err := huge.Admit(3); !errors.Is(err, ErrTooManyPoints) {
		t.Fatalf("over-limit Admit error = %v, want ErrTooManyPoints", err)
	}
	empty := Spec{Base: flow.Request{Circuit: "mux2"}}
	pts, err := empty.Expand()
	if err != nil || len(pts) != 1 {
		t.Fatalf("axis-free spec = %d points (%v), want exactly the base request", len(pts), err)
	}
}

// TestAdmit pins the one admission check: it counts a window's points,
// wraps ErrTooManyPoints over the limit only, validates every point, and
// leaves the spec untouched.
func TestAdmit(t *testing.T) {
	spec := Spec{Base: flow.Request{Circuit: "mux2"}, Axes: Axes{Seeds: []int64{1, 2, 3, 4}}}
	if n, err := spec.Admit(4); n != 4 || err != nil {
		t.Fatalf("Admit(4) = %d, %v; want 4 points", n, err)
	}
	if _, err := spec.Admit(3); !errors.Is(err, ErrTooManyPoints) {
		t.Fatalf("Admit(3) error = %v, want ErrTooManyPoints", err)
	}
	if n, err := spec.Slice(1, 2).Admit(3); n != 2 || err != nil {
		t.Fatalf("windowed Admit(3) = %d, %v; want the window's 2 points", n, err)
	}
	zip := spec
	zip.Zip, zip.Axes.MCTubes = true, []int{16}
	if _, err := zip.Admit(100); err == nil || errors.Is(err, ErrTooManyPoints) {
		t.Fatalf("zip length mismatch error = %v", err)
	}
	bad := spec
	bad.Axes.Circuits = []string{"nonesuch"}
	if _, err := bad.Admit(100); !errors.Is(err, flow.ErrUnknownCircuit) {
		t.Fatalf("bad point error = %v, want ErrUnknownCircuit", err)
	}
	// Inline circuits have no default stimulus: a delay sweep without
	// one, or one naming an input the circuit lacks, is refused before
	// any point runs; so is a registry circuit's stimulus that names an
	// input the circuit lacks.
	for name, base := range map[string]flow.Request{
		"no stimulus": {Exprs: map[string]string{"Y": "A*B"}, Analyses: []flow.Analysis{flow.AnalysisDelay}},
		"foreign pulse": {Netlist: "module x\ninput A\noutput Y\nu1 INV_1X A=A OUT=Y\nendmodule",
			Stimulus: &flow.Stimulus{Pulse: "B"}, Analyses: []flow.Analysis{flow.AnalysisEnergy}},
		"registry foreign pulse": {Circuit: "mux2", Stimulus: &flow.Stimulus{Pulse: "Q"},
			Analyses: []flow.Analysis{flow.AnalysisDelay}},
	} {
		stim := Spec{Base: base, Axes: Axes{Seeds: []int64{1, 2}}}
		if _, err := stim.Admit(100); !errors.Is(err, flow.ErrBadRequest) {
			t.Fatalf("%s: Admit error = %v, want ErrBadRequest", name, err)
		}
	}
	// A wire-cap axis inherits the request's bound.
	for _, c := range []float64{1e308, -1e-15} {
		caps := Spec{Base: flow.Request{Circuit: "mux2"}, Axes: Axes{WireCaps: []float64{flow.WireCapPerNM, c}}}
		if _, err := caps.Admit(100); !errors.Is(err, flow.ErrBadRequest) {
			t.Fatalf("wire cap axis value %g: Admit error = %v, want ErrBadRequest", c, err)
		}
	}
	if spec.Window != nil {
		t.Fatalf("Admit mutated the spec: %+v", spec)
	}
	// Counts past the int range are over every limit, not wrapped: a
	// window whose end overflows, and nine 128-value axes (2^63 points).
	if _, err := spec.Slice(math.MaxInt, 1).Admit(64); err == nil {
		t.Fatal("a window past the space's end was admitted")
	}
	wide := make([]float64, 128)
	for i := range wide {
		wide[i] = float64(i)
	}
	huge := Spec{Base: flow.Request{Circuit: "mux2"}, Axes: Axes{
		WireCaps: wide, MCAngles: wide, CountCVs: wide, DiameterSigmas: wide, AlignmentPs: wide,
		MCTubes: make([]int, 128), Seeds: make([]int64, 128),
		Placements: make([]string, 128), TechSets: make([]string, 128),
	}}
	if _, err := huge.Admit(64); !errors.Is(err, ErrTooManyPoints) {
		t.Fatalf("2^63-point spec: err = %v, want ErrTooManyPoints", err)
	}
}

// acceptanceSpec is the 3-axis sweep of the acceptance criteria: 2
// circuits x 3 tube counts x 2 placement schemes x 2 seeds = 24 points.
func acceptanceSpec() Spec {
	return Spec{
		Name: "acceptance",
		Base: flow.Request{
			Techs:    []string{"cnfet"},
			Analyses: []flow.Analysis{flow.AnalysisArea, flow.AnalysisImmunity},
		},
		Axes: Axes{
			Circuits:   []string{"mux2", "dec2"},
			MCTubes:    []int{16, 32, 48},
			Placements: []string{"rows", "shelves"},
			Seeds:      []int64{1, 2},
		},
	}
}

func TestRunSweepAggregates(t *testing.T) {
	kit := testKit(t)
	rep, err := Run(context.Background(), kit, acceptanceSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 24 {
		t.Fatalf("%d points, want 24", len(rep.Points))
	}
	if rep.Failed != 0 {
		t.Fatalf("%d failed points: %+v", rep.Failed, rep.Points)
	}
	for i, pr := range rep.Points {
		if pr.Index != i {
			t.Fatalf("point %d reported index %d (ordering broken)", i, pr.Index)
		}
		if pr.Result == nil || pr.Result.Techs["cnfet"] == nil {
			t.Fatalf("point %s lost its result", pr.ID)
		}
		if pr.Result.Stages != nil {
			t.Fatalf("point %s leaked volatile stage traces", pr.ID)
		}
		if pr.Result.Techs["cnfet"].Immunity == nil {
			t.Fatalf("point %s lost its immunity analysis", pr.ID)
		}
	}
	if len(rep.YieldVsTubes) != 3 {
		t.Fatalf("yield curve has %d entries, want one per tube count: %+v", len(rep.YieldVsTubes), rep.YieldVsTubes)
	}
	for i, y := range rep.YieldVsTubes {
		if y.Points != 8 {
			t.Errorf("yield point %d covers %d points, want 8", i, y.Points)
		}
		if y.Yield != 1-y.MeanFailRate {
			t.Errorf("yield point %d inconsistent: %+v", i, y)
		}
	}
	if _, ok := rep.Summary["cnfet/area_lam2"]; !ok {
		t.Fatalf("summary misses cnfet/area_lam2: %v", rep.Summary)
	}
	if s := rep.Summary["cnfet/area_lam2"]; s.Count != 24 || s.Min <= 0 || s.Min > s.P50 || s.P50 > s.P90 || s.P90 > s.Max {
		t.Fatalf("area summary malformed: %+v", s)
	}
	// The shared kit cache must deduplicate common prefix stages: each
	// circuit's netlist builds once (not 12x) and each (circuit,
	// placement) places once (not 6x), so well over half the stage
	// executions are cache hits — the speedup over issuing the same
	// points as independent cold runs.
	tr := rep.Trace
	if tr == nil || tr.TotalStages == 0 {
		t.Fatal("missing run trace")
	}
	if tr.CacheHitStages*2 < tr.TotalStages {
		t.Fatalf("cache sharing too weak: %d/%d stages cached", tr.CacheHitStages, tr.TotalStages)
	}

	// A rerun of the same spec resumes entirely from cache.
	rep2, err := Run(context.Background(), kit, acceptanceSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range rep2.Points {
		if pr.CachedStages != pr.TotalStages || pr.TotalStages == 0 {
			t.Fatalf("rerun point %s not fully cached: %d/%d", pr.ID, pr.CachedStages, pr.TotalStages)
		}
	}
}

// TestWireCapSTASweep runs a wire-cap timing sweep the way every
// surface serves one: the sta analysis over a wire_caps_per_nm axis.
// Each point must equal a single-job run at its cap, and the points
// must share the cap-independent stages (netlist, place, nldm).
func TestWireCapSTASweep(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization-backed timing sweep")
	}
	ctx := context.Background()
	caps := []float64{0.03e-18, 0.06e-18, 0.12e-18}
	base := flow.Request{
		Circuit:  "fulladder",
		Techs:    []string{"cnfet"},
		Analyses: []flow.Analysis{flow.AnalysisSTA},
	}
	kit, err := flow.New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(ctx, kit, Spec{Base: base, Axes: Axes{WireCaps: caps}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != len(caps) || rep.Failed != 0 {
		t.Fatalf("%d points, %d failed; want %d clean points", len(rep.Points), rep.Failed, len(caps))
	}
	single, err := flow.New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i, pr := range rep.Points {
		got := pr.Result.Techs["cnfet"].STA
		if got == nil || got.DelayS <= prev {
			t.Fatalf("point %d: delay does not rise strictly with wire cap: %+v after %g", i, got, prev)
		}
		prev = got.DelayS
		req := base
		req.WireCapPerNM = caps[i]
		res, err := single.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if want := res.Techs["cnfet"].STA; !reflect.DeepEqual(got, want) {
			t.Fatalf("point %d: sweep report %+v, single job %+v", i, got, want)
		}
	}
	if want := 3 * (len(caps) - 1); rep.Trace.CacheHitStages != want {
		t.Fatalf("cache hits = %d/%d stages, want %d (netlist, place and nldm once)",
			rep.Trace.CacheHitStages, rep.Trace.TotalStages, want)
	}
}

// TestRunSweepDeterministic is the -race determinism contract: the same
// spec on a kit built with one worker and on one built with eight yields
// byte-identical canonical JSON. Each run has its own kit, so the
// parallel run computes every point instead of reading the first run's
// cache.
func TestRunSweepDeterministic(t *testing.T) {
	var reports [2][]byte
	for i, workers := range []int{1, 8} {
		kit, err := flow.New(context.Background(), flow.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(context.Background(), kit, acceptanceSpec())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Trace.CacheHitStages == rep.Trace.TotalStages {
			t.Fatalf("workers=%d: every stage came from cache; the run computed nothing", workers)
		}
		if reports[i], err = rep.CanonicalJSON(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatalf("reports diverge across worker counts:\n%s\nvs\n%s", reports[0], reports[1])
	}
}

// TestRunSweepSequentialKitRunsInIndexOrder: a kit built with one worker
// runs one point at a time, in expansion order, whatever the spec.
func TestRunSweepSequentialKitRunsInIndexOrder(t *testing.T) {
	kit, err := flow.New(context.Background(), flow.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if kit.Workers() != 1 {
		t.Fatalf("kit.Workers() = %d, want 1", kit.Workers())
	}
	spec := Spec{
		Base: flow.Request{Techs: []string{"cnfet"}, Analyses: []flow.Analysis{flow.AnalysisArea}},
		Axes: Axes{Circuits: []string{"mux2", "dec2", "mux4"}, Placements: []string{"rows", "shelves"}},
	}
	var order []int
	if _, err := Run(context.Background(), kit, spec, OnPoint(func(pr PointResult) {
		order = append(order, pr.Index)
	})); err != nil {
		t.Fatal(err)
	}
	for i, idx := range order {
		if idx != i {
			t.Fatalf("completion order %v, want 0..%d in order", order, len(order)-1)
		}
	}
	if len(order) != 6 {
		t.Fatalf("%d points completed, want 6", len(order))
	}
}

func TestRunSweepRecordsPointErrors(t *testing.T) {
	kit := testKit(t)
	// A point Request.Validate rejects (immunity without cnfet) fails
	// the whole spec before any point runs.
	refused := Spec{
		Base: flow.Request{
			Circuit:  "mux2",
			Analyses: []flow.Analysis{flow.AnalysisArea, flow.AnalysisImmunity},
		},
		Axes: Axes{TechSets: []string{"cnfet", "cmos"}},
	}
	if _, err := Run(context.Background(), kit, refused); !errors.Is(err, flow.ErrBadRequest) {
		t.Fatalf("immunity without cnfet: err = %v, want flow.ErrBadRequest", err)
	}
	// A point that fails in a stage is recorded while its sibling
	// completes: at the largest admitted wire load, rca4's slowest CNFET
	// arc does not cross mid-rail within the delay transient's window.
	spec := Spec{
		Base: flow.Request{Circuit: "rca4", Techs: []string{"cnfet"}, Analyses: []flow.Analysis{flow.AnalysisDelay}},
		Axes: Axes{WireCaps: []float64{flow.WireCapPerNM, flow.MaxWireCapPerNM}},
	}
	rep, err := Run(context.Background(), kit, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 {
		t.Fatalf("failed = %d, want 1: %+v", rep.Failed, rep.Points)
	}
	if rep.Points[0].Error != "" || rep.Points[1].Error == "" {
		t.Fatalf("wrong point failed: %+v", rep.Points)
	}
}

func TestRunSweepCancellationResumes(t *testing.T) {
	kit, err := flow.New(context.Background(), flow.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Base: flow.Request{Techs: []string{"cnfet"}, Analyses: []flow.Analysis{flow.AnalysisArea}},
		Axes: Axes{
			Circuits: []string{"parity4", "aoichain4"},
			MCAngles: []float64{5, 10, 15}, // no-op for area, but fans the axis out
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	var completed int
	_, err = Run(ctx, kit, spec, OnPoint(func(pr PointResult) {
		completed++
		cancel() // first completion cancels the sweep
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep error = %v, want context.Canceled", err)
	}
	if completed == 0 {
		t.Fatal("cancellation fired before any point completed")
	}

	// The kit cache holds only complete successful stages, so the rerun
	// resumes: the previously completed points are fully cached.
	rep, err := Run(context.Background(), kit, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || len(rep.Points) != 6 {
		t.Fatalf("rerun failed=%d points=%d", rep.Failed, len(rep.Points))
	}
	if rep.Trace.CacheHitStages == 0 {
		t.Fatal("rerun saw no cached stages — cancelled run's completed work was lost")
	}
}

func TestRunSweepProgressAndStreaming(t *testing.T) {
	kit := testKit(t)
	var streamed []PointResult
	var failed, stages int
	spec := Spec{
		Base: flow.Request{Techs: []string{"cnfet"}, Analyses: []flow.Analysis{flow.AnalysisArea}},
		Axes: Axes{Circuits: []string{"mux2", "mux4", "dec2"}},
	}
	rep, err := Run(context.Background(), kit, spec, OnPoint(func(pr PointResult) {
		streamed = append(streamed, pr)
		if pr.Error != "" {
			failed++
		}
		stages += pr.TotalStages
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != 3 || failed != 0 {
		t.Fatalf("observed %d points (%d failed), want 3 (0 failed)", len(streamed), failed)
	}
	if stages == 0 || stages != rep.Trace.TotalStages {
		t.Fatalf("observed %d stages, report trace counts %d", stages, rep.Trace.TotalStages)
	}
	if len(streamed) != len(rep.Points) {
		t.Fatalf("streamed %d points, report has %d", len(streamed), len(rep.Points))
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.Count != 4 || s.Min != 1 || s.Max != 4 || s.Mean != 2.5 {
		t.Fatalf("stats = %+v", s)
	}
	if s.P50 != 2.5 {
		t.Errorf("p50 = %v, want 2.5", s.P50)
	}
	if math.Abs(s.P90-3.7) > 1e-9 {
		t.Errorf("p90 = %v, want 3.7", s.P90)
	}
	if z := Summarize(nil); z.Count != 0 || z.Min != 0 {
		t.Errorf("empty stats = %+v", z)
	}
}

func TestParetoFront(t *testing.T) {
	mk := func(idx int, area, delay, fail float64) PointResult {
		tr := &flow.TechResult{Tech: "cnfet", AreaLam2: area, DelayS: delay}
		if fail > 0 {
			tr.Immunity = &flow.ImmunityResult{MCTubes: 100, MCFailRate: fail}
		}
		return PointResult{
			Index:  idx,
			Result: &flow.Result{Techs: map[string]*flow.TechResult{"cnfet": tr}},
		}
	}
	points := []PointResult{
		mk(0, 100, 5, 0),   // on the front (best delay)
		mk(1, 80, 7, 0),    // on the front (best area)
		mk(2, 120, 6, 0),   // dominated by 0
		mk(3, 100, 5, 0.1), // dominated by 0 (same area/delay, worse fail rate)
	}
	front := paretoFront(points)
	if len(front) != 2 {
		t.Fatalf("front = %+v, want points 1 and 0", front)
	}
	if front[0].Index != 1 || front[1].Index != 0 {
		t.Fatalf("front order = %+v, want area-ascending [1, 0]", front)
	}
}
