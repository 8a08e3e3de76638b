package flow_test

// Artifact-store integration tests: warm-starting a fresh kit (a fresh
// process, morally — nothing is shared but the store directory) from
// stage results a previous kit persisted, and the determinism contract
// across the three serving paths (cold compute, memory tier, disk tier).

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"cnfetdk/internal/flow"
	"cnfetdk/internal/sweep"
)

// canonicalJSON renders a Result with its execution trace stripped: what
// must stay byte-identical across cold, memory and disk serving paths.
func canonicalJSON(t *testing.T, res *flow.Result) string {
	t.Helper()
	c := *res
	c.Stages = nil
	blob, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// allStagesCached reports whether every stage of a result was served
// from cache, with the first miss named for diagnostics.
func allStagesCached(res *flow.Result) (bool, string) {
	for _, st := range res.Stages {
		if !st.Cached {
			return false, st.Stage
		}
	}
	return true, ""
}

// TestKitWarmStartsFromDisk is the acceptance scenario: a cold Kit.Run
// in "process" A, then the same request in a fresh kit B sharing only
// the store directory. B must serve every stage from the disk tier,
// byte-identically, and far faster than the cold run.
func TestKitWarmStartsFromDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("full flow in -short mode")
	}
	ctx := context.Background()
	dir := t.TempDir()
	req := flow.Request{
		Circuit:  "fulladder",
		Analyses: []flow.Analysis{flow.AnalysisArea, flow.AnalysisDelay, flow.AnalysisEnergy},
	}

	kitA, err := flow.New(ctx, flow.WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	resA, err := kitA.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	cold := time.Since(t0)
	if st := kitA.CacheStats(); st.Disk == nil || st.Disk.Puts == 0 {
		t.Fatalf("cold run persisted nothing: %+v", st)
	}

	kitB, err := flow.New(ctx, flow.WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	t1 := time.Now()
	resB, err := kitB.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	warm := time.Since(t1)

	if ok, miss := allStagesCached(resB); !ok {
		t.Fatalf("warm-process stage %q was recomputed", miss)
	}
	st := kitB.CacheStats()
	if st.Disk == nil || st.Disk.Hits == 0 {
		t.Fatalf("warm process hit the disk tier 0 times: %+v", st)
	}
	if a, b := canonicalJSON(t, resA), canonicalJSON(t, resB); a != b {
		t.Fatalf("disk-served result differs from cold result:\n%s\n%s", a, b)
	}
	// The cache-correctness assertions above are the real contract; wall
	// time is logged for the acceptance record but only an egregious miss
	// fails, so a scheduling stall on a loaded CI runner (which can eat
	// the nominal ~100x margin) does not flake the test.
	t.Logf("cold %v, warm %v (%.0fx)", cold, warm, float64(cold)/float64(warm))
	if warm*2 > cold {
		t.Errorf("warm run %v is not even 2x below cold %v", warm, cold)
	}
}

// TestColdMemoryDiskPathsByteIdentical exercises every registered codec
// (netlist, placement, wire caps, scalars, immunity, liberty, gds) and
// asserts the canonical result is byte-identical on all three serving
// paths.
func TestColdMemoryDiskPathsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full flow in -short mode")
	}
	ctx := context.Background()
	dir := t.TempDir()
	req := flow.Request{
		Circuit: "mux2",
		Analyses: []flow.Analysis{flow.AnalysisArea, flow.AnalysisDelay, flow.AnalysisEnergy,
			flow.AnalysisImmunity, flow.AnalysisLiberty, flow.AnalysisGDS},
		MCTubes: 8,
		Seed:    3,
	}

	kitA, err := flow.New(ctx, flow.WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := kitA.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	memRes, err := kitA.Run(ctx, req) // same kit: memory tier
	if err != nil {
		t.Fatal(err)
	}
	if ok, miss := allStagesCached(memRes); !ok {
		t.Fatalf("memory-path stage %q was recomputed", miss)
	}

	kitB, err := flow.New(ctx, flow.WithStore(dir)) // fresh kit: disk tier
	if err != nil {
		t.Fatal(err)
	}
	diskRes, err := kitB.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if ok, miss := allStagesCached(diskRes); !ok {
		t.Fatalf("disk-path stage %q was recomputed", miss)
	}

	cold := canonicalJSON(t, coldRes)
	if mem := canonicalJSON(t, memRes); mem != cold {
		t.Fatal("memory-tier result differs from cold result")
	}
	if disk := canonicalJSON(t, diskRes); disk != cold {
		t.Fatal("disk-tier result differs from cold result")
	}
}

// TestPartialStoreFeedsDecodedValues: an area-only job leaves a store
// holding a circuit's netlist and placements; an area+delay+energy job
// on a fresh kit over that store reads those from disk and computes its
// wire, delay and energy stages from the decoded values. The result must
// equal a memory-only cold run byte for byte. The tests above serve a
// whole job from one tier, and a result reads only a placement's area,
// so this is the path on which a decoded pin reaches a computation.
func TestPartialStoreFeedsDecodedValues(t *testing.T) {
	if testing.Short() {
		t.Skip("full flow in -short mode")
	}
	ctx := context.Background()
	full := []flow.Analysis{flow.AnalysisArea, flow.AnalysisDelay, flow.AnalysisEnergy}
	for _, circuit := range []string{"fulladder", "rca4"} {
		dir := t.TempDir()
		kitA, err := flow.New(ctx, flow.WithStore(dir))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := kitA.Run(ctx, flow.Request{Circuit: circuit, Analyses: []flow.Analysis{flow.AnalysisArea}}); err != nil {
			t.Fatal(err)
		}

		kitB, err := flow.New(ctx, flow.WithStore(dir))
		if err != nil {
			t.Fatal(err)
		}
		got, err := kitB.Run(ctx, flow.Request{Circuit: circuit, Analyses: full})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range got.Stages {
			if stored := st.Stage == "netlist" || strings.HasPrefix(st.Stage, "place/"); st.Cached != stored {
				t.Fatalf("%s: stage %s cached = %v, want %v", circuit, st.Stage, st.Cached, stored)
			}
		}
		if st := kitB.CacheStats(); st.Disk.Hits != 3 || st.Disk.Errors != 0 {
			t.Fatalf("%s: disk hits %d, errors %d; want the netlist and both placements, no errors",
				circuit, st.Disk.Hits, st.Disk.Errors)
		}

		cold, err := flow.New(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.Run(ctx, flow.Request{Circuit: circuit, Analyses: full})
		if err != nil {
			t.Fatal(err)
		}
		if a, b := canonicalJSON(t, want), canonicalJSON(t, got); a != b {
			t.Fatalf("%s: a job over stored netlist and placements differs from a cold run:\n%s\n%s", circuit, a, b)
		}
	}
}

// TestSweepResumesFromDiskAcrossKits models a killed sweep restarted in
// a new process: the points the first process completed are served from
// the shared store, and a superset sweep reuses them too.
func TestSweepResumesFromDiskAcrossKits(t *testing.T) {
	if testing.Short() {
		t.Skip("full flow in -short mode")
	}
	ctx := context.Background()
	dir := t.TempDir()
	specA := sweep.Spec{
		Name: "resume",
		Base: flow.Request{Techs: []string{"cnfet"}, Analyses: []flow.Analysis{flow.AnalysisArea}},
		Axes: sweep.Axes{Circuits: []string{"mux2"}, Placements: []string{"rows", "shelves"}},
	}

	kitA, err := flow.New(ctx, flow.WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	repA, err := sweep.Run(ctx, kitA, specA)
	if err != nil {
		t.Fatal(err)
	}
	if repA.Failed != 0 {
		t.Fatalf("%d points failed", repA.Failed)
	}

	// "Restart": a fresh kit on the same store replays the sweep with
	// every stage served from disk.
	kitB, err := flow.New(ctx, flow.WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	repB, err := sweep.Run(ctx, kitB, specA)
	if err != nil {
		t.Fatal(err)
	}
	if repB.Trace.CacheHitStages != repB.Trace.TotalStages {
		t.Fatalf("resumed sweep recomputed: %d/%d stages cached",
			repB.Trace.CacheHitStages, repB.Trace.TotalStages)
	}
	jA, err := repA.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	jB, err := repB.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(jA) != string(jB) {
		t.Fatal("resumed sweep report differs from the original")
	}

	// A superset sweep in yet another fresh kit reuses the completed
	// points: its mux2 points are fully cached.
	specB := specA
	specB.Axes.Circuits = []string{"mux2", "dec2"}
	kitC, err := flow.New(ctx, flow.WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	repC, err := sweep.Run(ctx, kitC, specB)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range repC.Points {
		if pr.Params["circuit"] == "mux2" && pr.CachedStages != pr.TotalStages {
			t.Fatalf("resumed point %s recomputed %d stages", pr.ID, pr.TotalStages-pr.CachedStages)
		}
	}
}

// TestStorePurgeForcesRecompute: purging the kit's store empties both
// tiers, so the next run recomputes (and re-persists) everything.
func TestStorePurgeForcesRecompute(t *testing.T) {
	ctx := context.Background()
	kit, err := flow.New(ctx, flow.WithStore(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	req := flow.Request{Circuit: "mux2", Techs: []string{"cnfet"}, Analyses: []flow.Analysis{flow.AnalysisArea}}
	if _, err := kit.Run(ctx, req); err != nil {
		t.Fatal(err)
	}
	if err := kit.PurgeCache(); err != nil {
		t.Fatal(err)
	}
	st := kit.CacheStats()
	if st.Mem.Entries != 0 || st.Disk == nil || st.Disk.Entries != 0 {
		t.Fatalf("purge left entries: %+v", st)
	}
	res, err := kit.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := allStagesCached(res); ok {
		t.Fatal("post-purge run must recompute")
	}
}

// TestStoreOpenFailureSurfaces: an unusable store path fails kit
// construction with a clear error instead of silently running uncached.
func TestStoreOpenFailureSurfaces(t *testing.T) {
	f := t.TempDir() + "/occupied"
	if err := os.WriteFile(f, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := flow.New(context.Background(), flow.WithStore(f)); err == nil {
		t.Fatal("kit over an unusable store path must fail")
	}
}
