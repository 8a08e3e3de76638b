package fabric_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"cnfetdk/internal/fabric"
	"cnfetdk/internal/sweep"
)

// fakeShardWorker speaks the worker NDJSON shard protocol without a
// real kit: it expands the windowed spec into empty point results, so
// fabric failure paths can be exercised at test speed. fail selects
// which shard requests (1-based) answer 500 instead.
func fakeShardWorker(t *testing.T, fail func(n int) bool) *httptest.Server {
	t.Helper()
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		if fail(int(calls.Add(1))) {
			http.Error(w, "synthetic worker failure", http.StatusInternalServerError)
			return
		}
		var spec sweep.Spec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		pts, err := spec.Expand()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		prs := make([]sweep.PointResult, 0, len(pts))
		for _, pt := range pts {
			pr := sweep.PointResult{Index: pt.Index, ID: pt.ID, Params: pt.Params}
			prs = append(prs, pr)
			enc.Encode(map[string]any{"point": &pr})
		}
		enc.Encode(map[string]any{"done": true, "report": &sweep.Report{Spec: spec, Points: prs}})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestSweepFailureSalvagesPartialReport pins the salvage path: a sweep
// whose second lease exhausts its attempts fails with a typed SweepError
// carrying a Partial-flagged report of the points that did complete.
func TestSweepFailureSalvagesPartialReport(t *testing.T) {
	srv := fakeShardWorker(t, func(n int) bool { return n > 1 })
	c := testCoord(fabric.Options{MaxAttempts: 1, BreakerThreshold: -1})
	if _, err := c.Join(srv.URL, true); err != nil {
		t.Fatal(err)
	}

	spec := identitySpec() // 12 points; testCoord leases 3 → lease 1 lands, lease 2 dies
	rep, err := c.RunSweep(context.Background(), spec, fabric.RunOptions{})
	if err == nil {
		t.Fatal("sweep with a dead lease succeeded")
	}
	if rep != nil {
		t.Fatal("failed sweep returned a full report")
	}
	var se *fabric.SweepError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v (%T), want *fabric.SweepError", err, err)
	}
	if se.Total != 12 || se.Complete != 3 {
		t.Fatalf("salvage counts = %d/%d, want 3/12", se.Complete, se.Total)
	}
	if se.Partial == nil || !se.Partial.Partial {
		t.Fatalf("salvaged report missing or not Partial-flagged: %+v", se.Partial)
	}
	if len(se.Partial.Points) != 3 {
		t.Fatalf("salvaged %d points, want 3", len(se.Partial.Points))
	}
	for i, pr := range se.Partial.Points {
		if pr.Index != i {
			t.Fatalf("salvaged points out of order: got index %d at position %d", pr.Index, i)
		}
	}
}

// TestPartialReportCrossesTheStreamSurface pins the HTTP path: the
// coordinator's final stream line carries the salvaged report next to
// the error, and the Go client returns both.
func TestPartialReportCrossesTheStreamSurface(t *testing.T) {
	worker := fakeShardWorker(t, func(n int) bool { return n > 1 })
	c := testCoord(fabric.Options{MaxAttempts: 1, BreakerThreshold: -1})
	if _, err := c.Join(worker.URL, true); err != nil {
		t.Fatal(err)
	}
	coord := startCoordServer(t, c)

	client := &fabric.Client{URL: coord.URL}
	rep, err := client.RunSweep(context.Background(), identitySpec())
	if err == nil {
		t.Fatal("client saw no error from a failed sweep")
	}
	if rep == nil || !rep.Partial || len(rep.Points) != 3 {
		t.Fatalf("client did not receive the salvaged partial report: %+v", rep)
	}
}
