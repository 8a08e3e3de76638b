package fabric_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"cnfetdk/internal/fabric"
	"cnfetdk/internal/flow"
	"cnfetdk/internal/service"
	"cnfetdk/internal/sweep"
)

// TestFabricSweepCarriesSTA: a sweep whose points carry STA reports
// (fulladder and mux2, sta on cnfet, at two wire caps) merges on a
// 2-worker fabric to the local sweep.Run's canonical bytes, so instance
// delays cross a worker's stream and the coordinator's decode intact.
// Those bytes are pinned by the sweep/fabric-sta row of the contract
// corpus (internal/flow/testdata/contract.sha256), which keeps a copy of
// this spec. The workers serve the local run's kit: what is under test
// is the stream codec, and TestRunSweepCanonicalIdentity already runs
// workers on kits of their own.
func TestFabricSweepCarriesSTA(t *testing.T) {
	spec := sweep.Spec{
		Name: "fabric-sta",
		Base: flow.Request{Techs: []string{"cnfet"}, Analyses: []flow.Analysis{flow.AnalysisSTA}},
		Axes: sweep.Axes{Circuits: []string{"fulladder", "mux2"}, WireCaps: []float64{0.03e-18, 0.12e-18}},
	}
	kit, err := flow.New(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	local, err := sweep.Run(context.Background(), kit, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(want, []byte(`"instance_delay"`)) {
		t.Fatal("the report carries no instance delays")
	}

	c := testCoord(fabric.Options{LeasePoints: 2})
	for range 2 {
		w := httptest.NewServer(service.NewServer(kit))
		t.Cleanup(w.Close)
		if _, err := c.Join(w.URL, true); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := c.RunSweep(context.Background(), spec, fabric.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged canonical report differs from the local run (%d vs %d bytes)", len(got), len(want))
	}
}
