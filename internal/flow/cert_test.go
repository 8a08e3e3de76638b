package flow_test

// Per-cell certificate entries: the immunity stage reads each distinct
// cell's critical-line verdict from the kit's cache, so the verdict is
// computed once per cell and shared by every stage, request, sweep
// point and process that meets the cell, with no result byte moved (the
// contract corpus's immunity rows pin those bytes).

import (
	"context"
	"sort"
	"testing"

	"cnfetdk/internal/flow"
	"cnfetdk/internal/sweep"
)

// cellsOf lists the distinct cells a registry circuit instantiates.
func cellsOf(t *testing.T, circuit string) map[string]bool {
	t.Helper()
	c, err := flow.LookupCircuit(circuit)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, inst := range nl.Instances {
		out[inst.Cell] = true
	}
	return out
}

// sharedCells lists the cells both circuits instantiate, sorted; it
// fails the test when they share none.
func sharedCells(t *testing.T, a, b string) []string {
	t.Helper()
	inB := cellsOf(t, b)
	var out []string
	for name := range cellsOf(t, a) {
		if inB[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	if len(out) == 0 {
		t.Fatalf("%s and %s share no cell", a, b)
	}
	return out
}

// runImmunityJob runs a registry circuit's cnfet-only immunity job and
// returns its canonical result.
func runImmunityJob(t *testing.T, k *flow.Kit, circuit string) string {
	t.Helper()
	res, err := k.Run(context.Background(), flow.Request{Circuit: circuit, Techs: []string{"cnfet"},
		Analyses: []flow.Analysis{flow.AnalysisImmunity}})
	if err != nil {
		t.Fatalf("%s: %v", circuit, err)
	}
	return canonicalJSON(t, res)
}

// TestCellCertsSharedAcrossRequests: on one kit, dec2 run after mux2
// reads the cells the two share from the memory tier. Every other
// lookup of the dec2 job (its netlist and immunity stages, its own
// cells) misses, so the memory hits are exactly the shared cells.
func TestCellCertsSharedAcrossRequests(t *testing.T) {
	k, err := flow.New(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	shared := sharedCells(t, "mux2", "dec2")
	runImmunityJob(t, k, "mux2")
	before := k.CacheStats().Mem
	got := runImmunityJob(t, k, "dec2")
	after := k.CacheStats().Mem
	if hits := after.Hits - before.Hits; hits != int64(len(shared)) {
		t.Fatalf("dec2 after mux2: %d memory hits, want %d (the shared cells %v)", hits, len(shared), shared)
	}
	if misses, want := after.Misses-before.Misses, int64(2+len(cellsOf(t, "dec2"))-len(shared)); misses != want {
		t.Fatalf("dec2 after mux2: %d memory misses, want %d", misses, want)
	}

	fresh, err := flow.New(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := runImmunityJob(t, fresh, "dec2"); got != want {
		t.Fatalf("dec2 with shared certificates:\n%s\nwant (cold kit):\n%s", got, want)
	}
}

// TestCellCertsRecomputedAfterPurge: PurgeCache drops the certificate
// entries with the stage entries, so the next job recomputes every
// cell and serves nothing from memory.
func TestCellCertsRecomputedAfterPurge(t *testing.T) {
	k, err := flow.New(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := runImmunityJob(t, k, "dec2")
	if err := k.PurgeCache(); err != nil {
		t.Fatal(err)
	}
	before := k.CacheStats().Mem
	got := runImmunityJob(t, k, "dec2")
	after := k.CacheStats().Mem
	if hits := after.Hits - before.Hits; hits != 0 {
		t.Fatalf("post-purge run: %d memory hits, want 0", hits)
	}
	if misses, cells := after.Misses-before.Misses, int64(2+len(cellsOf(t, "dec2"))); misses != cells {
		t.Fatalf("post-purge run: %d memory misses, want %d (2 stages + every cell)", misses, cells)
	}
	if got != want {
		t.Fatal("recomputed result differs from the first run")
	}
}

// TestCellCertsServedFromDisk: a second kit on the same store reads the
// cells it shares with the first kit's job from disk, and its result
// equals a memory-only kit's.
func TestCellCertsServedFromDisk(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	shared := sharedCells(t, "mux2", "dec2")
	kitA, err := flow.New(ctx, flow.WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	runImmunityJob(t, kitA, "mux2")

	kitB, err := flow.New(ctx, flow.WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	got := runImmunityJob(t, kitB, "dec2")
	if st := kitB.CacheStats().Disk; st == nil || st.Hits != int64(len(shared)) {
		t.Fatalf("second kit disk tier %+v, want %d hits (the shared cells %v)", st, len(shared), shared)
	}

	mem, err := flow.New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := runImmunityJob(t, mem, "dec2"); got != want {
		t.Fatalf("disk-served certificates:\n%s\nwant (memory-only kit):\n%s", got, want)
	}
}

// TestCellCertSweepWorkersIdentical: a 6-seed mux2+dec2 immunity sweep
// runs its points' immunity stages concurrently, so they meet on one
// in-flight certificate per shared cell. Its canonical report is the
// same at one worker and at eight.
func TestCellCertSweepWorkersIdentical(t *testing.T) {
	spec := sweep.Spec{
		Name: "certs",
		Base: flow.Request{Techs: []string{"cnfet"}, Analyses: []flow.Analysis{flow.AnalysisImmunity},
			MCTubes: 16, AlignmentP: 0.05},
		Axes: sweep.Axes{Circuits: []string{"mux2", "dec2"}, Seeds: []int64{1, 2, 3, 4, 5, 6}},
	}
	var reports [2][]byte
	for i, workers := range []int{1, 8} {
		k, err := flow.New(context.Background(), flow.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sweep.Run(context.Background(), k, spec)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 {
			t.Fatalf("workers=%d: %d points failed", workers, rep.Failed)
		}
		if reports[i], err = rep.CanonicalJSON(); err != nil {
			t.Fatal(err)
		}
	}
	if string(reports[0]) != string(reports[1]) {
		t.Fatalf("canonical reports differ between 1 and 8 workers:\n%s\n%s", reports[0], reports[1])
	}
}
