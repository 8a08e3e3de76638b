package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"cnfetdk/internal/fabric"
	"cnfetdk/internal/promtext"
)

func TestLivezAlwaysOK(t *testing.T) {
	s := testServer(t)
	s.SetReady(false) // liveness must not follow readiness
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/livez", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("livez = %d, want 200", rec.Code)
	}
}

func TestReadyzFollowsSetReady(t *testing.T) {
	s := testServer(t)
	get := func() (int, bool) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		var body struct {
			Ready bool `json:"ready"`
		}
		json.Unmarshal(rec.Body.Bytes(), &body)
		return rec.Code, body.Ready
	}
	if code, ready := get(); code != http.StatusOK || !ready {
		t.Fatalf("fresh server readyz = %d ready=%v, want 200/true", code, ready)
	}
	s.SetReady(false) // a fabric worker that has not enrolled yet
	if code, ready := get(); code != http.StatusServiceUnavailable || ready {
		t.Fatalf("unready readyz = %d ready=%v, want 503/false", code, ready)
	}
	s.SetReady(true)
	if code, _ := get(); code != http.StatusOK {
		t.Fatalf("re-readied readyz = %d, want 200", code)
	}
	// healthz stays 200 either way but reports the flag.
	s.SetReady(false)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"ready": false`)) {
		t.Fatalf("healthz while unready = %d: %s", rec.Code, rec.Body.String())
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t)
	// Run one small streamed sweep so the point counters move.
	rec := postSweep(t, s, "/v1/sweeps?stream=ndjson", `{
	  "base": {"techs": ["cnfet"], "analyses": ["area"]},
	  "axes": {"circuits": ["mux2", "dec2"]}
	}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep status = %d: %s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != promtext.ContentType {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE cnfetd_ready gauge",
		"cnfetd_ready 1",
		"# TYPE cnfetd_sweep_points_done_total counter",
		"# TYPE cnfetd_store_hits_total counter",
		`cnfetd_store_hits_total{tier="mem"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics lack %q", want)
		}
	}
	// The streamed sweep's two points are visible process-wide.
	if done := metricValue(t, body, "cnfetd_sweep_points_done_total"); done < 2 {
		t.Fatalf("cnfetd_sweep_points_done_total = %v, want >= 2", done)
	}
}

// metricValue reads one unlabelled series from a /metrics body.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if f, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metrics lack %s", name)
	return 0
}

// TestStreamSweepHeadersAndFlush: the NDJSON stream must defeat proxy
// buffering (X-Accel-Buffering: no) and flush every record — the sweep
// fabric's lease watchdog reads these streams line by line.
func TestStreamSweepHeadersAndFlush(t *testing.T) {
	s := testServer(t)
	rec := postSweep(t, s, "/v1/sweeps?stream=ndjson", `{
	  "base": {"techs": ["cnfet"], "analyses": ["area"]},
	  "axes": {"circuits": ["mux2"]}
	}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if ab := rec.Header().Get("X-Accel-Buffering"); ab != "no" {
		t.Fatalf("X-Accel-Buffering = %q, want \"no\"", ab)
	}
	if !rec.Flushed {
		t.Fatal("stream never flushed")
	}
}

// TestStreamSweepWindowedShard: the worker half of the fabric protocol —
// a windowed (sharded) spec streams exactly its slice, with global
// indices intact, and the final report covers the window.
func TestStreamSweepWindowedShard(t *testing.T) {
	s := testServer(t)
	rec := postSweep(t, s, "/v1/sweeps?stream=ndjson", `{
	  "base": {"techs": ["cnfet"], "analyses": ["area"]},
	  "axes": {"circuits": ["mux2", "dec2"], "placements": ["rows", "shelves"]},
	  "window": {"offset": 1, "count": 2}
	}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var indices []int
	var last fabric.StreamLine
	sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line fabric.StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Point != nil {
			indices = append(indices, line.Point.Index)
		}
		if line.Done {
			last = line
		}
	}
	if len(indices) != 2 {
		t.Fatalf("shard streamed %d points, want 2", len(indices))
	}
	for _, idx := range indices {
		if idx != 1 && idx != 2 {
			t.Fatalf("shard point carries global index %d, want 1 or 2", idx)
		}
	}
	if last.Report == nil || len(last.Report.Points) != 2 {
		t.Fatalf("shard report = %+v", last.Report)
	}
	if last.Report.Points[0].Index != 1 || last.Report.Points[1].Index != 2 {
		t.Fatalf("shard report indices = %d,%d want 1,2",
			last.Report.Points[0].Index, last.Report.Points[1].Index)
	}
	// A window outside the space is a 400, not a stream.
	rec = postSweep(t, s, "/v1/sweeps", `{
	  "base": {"circuit": "mux2", "techs": ["cnfet"]},
	  "window": {"offset": 5, "count": 1}
	}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("out-of-space window status = %d, want 400", rec.Code)
	}
}
