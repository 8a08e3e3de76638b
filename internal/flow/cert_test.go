package flow_test

// Per-cell certificate entries: the immunity stage reads each distinct
// cell's critical-line verdict from the kit's cache, so the verdict is
// computed once per cell and shared by every stage, request, sweep
// point and process that meets the cell, with no result byte moved.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"cnfetdk/internal/flow"
	"cnfetdk/internal/sweep"
)

// immunityGoldenSHA256 pins the sha256 of every registry circuit's CNFET
// ImmunityResult JSON under immunityGoldenRequest, per circuit/seed:
// values recorded before the per-cell certificates moved into the
// kit's cache. The cache changed where a verdict is computed, not what
// it is, so every byte must stay identical.
var immunityGoldenSHA256 = map[string]string{
	"aoichain4/1": "ca04cd62cb2bf337f3cb42810ecd767b131f27d23acd16c65edde19fce5c028b",
	"aoichain4/2": "ca04cd62cb2bf337f3cb42810ecd767b131f27d23acd16c65edde19fce5c028b",
	"dec2/1":      "3a901a0777af1794018af03181c7dab5c859ba0681950df49014dacd7799e17f",
	"dec2/2":      "3a901a0777af1794018af03181c7dab5c859ba0681950df49014dacd7799e17f",
	"fulladder/1": "20994fc095931bce75fda74578d6710a30fd3ab55f64a6f14a2e0ae0040cd613",
	"fulladder/2": "20994fc095931bce75fda74578d6710a30fd3ab55f64a6f14a2e0ae0040cd613",
	"mult4/1":     "97a1a783ad3fc07e3105284d3bbb992fcc648648dc73cbc8bb5a662804430049",
	"mult4/2":     "97a1a783ad3fc07e3105284d3bbb992fcc648648dc73cbc8bb5a662804430049",
	"mult8/1":     "dc2aea08dab900c41cc95010354a5955209e32813a66a41d28b18829a9e687b1",
	"mult8/2":     "dc2aea08dab900c41cc95010354a5955209e32813a66a41d28b18829a9e687b1",
	"mux2/1":      "384f2925a82458ebe33b73a9d23af94c74a398fa14c58bd00c92a443e2994177",
	"mux2/2":      "384f2925a82458ebe33b73a9d23af94c74a398fa14c58bd00c92a443e2994177",
	"mux4/1":      "02c290bf36b3cd62e405fc1091fd42c092fd74c5061e86cb7a333d371de087dd",
	"mux4/2":      "02c290bf36b3cd62e405fc1091fd42c092fd74c5061e86cb7a333d371de087dd",
	"parity4/1":   "2775cee49ace706796b4093e07b5a4a7da5b43544a289d93541f3e5f2cd1129f",
	"parity4/2":   "2775cee49ace706796b4093e07b5a4a7da5b43544a289d93541f3e5f2cd1129f",
	"rca16/1":     "d68390bd1d93a5f9d1e3b46bf60e6ecdd61bdcdc83b98889615cba48eb1fa21a",
	"rca16/2":     "d68390bd1d93a5f9d1e3b46bf60e6ecdd61bdcdc83b98889615cba48eb1fa21a",
	"rca4/1":      "70330da600e243061ded4e7c8dbe592efda1d4bc432b50e114b33786ebb4d81c",
	"rca4/2":      "70330da600e243061ded4e7c8dbe592efda1d4bc432b50e114b33786ebb4d81c",
	"rca8/1":      "9115ba1e17baa54a1e5bc682e61665986382c3c91d82c97bb1898390295f1709",
	"rca8/2":      "9115ba1e17baa54a1e5bc682e61665986382c3c91d82c97bb1898390295f1709",
}

// immunityGoldenRequest is the pinned immunity job: a Monte Carlo
// sample and a non-zero variation model, so the stage reads the cached
// certificates, samples per design and composes a functional yield.
func immunityGoldenRequest(circuit string, seed int64) flow.Request {
	return flow.Request{
		Circuit:    circuit,
		Techs:      []string{"cnfet"},
		Analyses:   []flow.Analysis{flow.AnalysisImmunity},
		MCTubes:    64,
		CNTCountCV: 0.2,
		AlignmentP: 0.05,
		Seed:       seed,
	}
}

// TestImmunityResultGoldens runs every registry circuit at two seeds on
// one kit, so the first circuit computes its certificates and later
// ones read shared cells from memory, and pins each ImmunityResult.
func TestImmunityResultGoldens(t *testing.T) {
	k, err := flow.New(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, c := range flow.Circuits() {
		for _, seed := range []int64{1, 2} {
			id := fmt.Sprintf("%s/%d", c.Name, seed)
			want, ok := immunityGoldenSHA256[id]
			if !ok {
				t.Errorf("%s: no golden recorded", id)
				continue
			}
			res, err := k.Run(context.Background(), immunityGoldenRequest(c.Name, seed))
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			blob, err := json.Marshal(res.Techs["cnfet"].Immunity)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s: ImmunityResult sha256 %s, want %s\n%s", id, got, want, blob)
			}
			ran++
		}
	}
	if ran != len(immunityGoldenSHA256) {
		t.Errorf("ran %d pinned jobs, want %d", ran, len(immunityGoldenSHA256))
	}
}

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
