package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cnfetdk/internal/fabric"
	"cnfetdk/internal/flow"
	"cnfetdk/internal/sweep"
)

// testKit builds (or reuses) the package's shared kit.
func testKit(t *testing.T) *flow.Kit {
	t.Helper()
	testServer(t)
	return kitVal
}

// acceptanceSpecJSON is the acceptance-criteria sweep: 2 circuits x 3
// tube counts x 2 placement schemes x 2 seeds = 24 points, 3+ axes.
const acceptanceSpecJSON = `{
  "name": "acceptance-http",
  "base": {"techs": ["cnfet"], "analyses": ["area", "immunity"]},
  "axes": {
    "circuits": ["mux2", "dec2"],
    "mc_tubes": [16, 32, 48],
    "placements": ["rows", "shelves"],
    "seeds": [1, 2]
  }
}`

func postSweep(t *testing.T, s *Server, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, target, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestSweepAsyncLifecycle(t *testing.T) {
	s := testServer(t)
	rec := postSweep(t, s, "/v1/sweeps", acceptanceSpecJSON)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var created struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Points int    `json:"points"`
		URL    string `json:"url"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	if created.Points != 24 || created.State != "running" || created.ID == "" {
		t.Fatalf("create response = %+v", created)
	}

	st := waitSweep(t, s, created.URL)
	if st.State != sweepDone {
		t.Fatalf("final state = %s (%s)", st.State, st.Error)
	}
	if st.Report == nil || len(st.Report.Points) != 24 || st.Report.Failed != 0 {
		t.Fatalf("report missing or wrong: %+v", st.Report)
	}
	if st.Progress.Done != 24 {
		t.Fatalf("progress = %+v, want 24 done", st.Progress)
	}
	if st.Report.Trace == nil || st.Report.Trace.CacheHitStages == 0 {
		t.Fatal("sweep trace lost its cache-sharing evidence")
	}
	if len(st.Report.YieldVsTubes) != 3 {
		t.Fatalf("yield curve = %+v", st.Report.YieldVsTubes)
	}

	// The listing sees it too.
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/v1/sweeps", nil))
	if rec2.Code != http.StatusOK || !bytes.Contains(rec2.Body.Bytes(), []byte(created.ID)) {
		t.Fatalf("listing = %d: %s", rec2.Code, rec2.Body.String())
	}
}

// waitSweep polls an async sweep's status URL until it settles.
func waitSweep(t *testing.T, s *Server, url string) sweepStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("poll status = %d: %s", rec.Code, rec.Body.String())
		}
		var st sweepStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.State != sweepRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep still running after 2m: %+v", st.Progress)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSweepProgressSumsAcrossSweeps: every sweep's OnPoint observer
// counts its points into its own status and into the server's /metrics
// totals, async and streamed alike.
func TestSweepProgressSumsAcrossSweeps(t *testing.T) {
	s := NewServer(testKit(t))
	rec := postSweep(t, s, "/v1/sweeps", `{
	  "base": {"techs": ["cnfet"], "analyses": ["area"]},
	  "axes": {"circuits": ["mux2", "dec2"]}
	}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async status = %d: %s", rec.Code, rec.Body.String())
	}
	var created struct {
		URL string `json:"url"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	async := waitSweep(t, s, created.URL)
	// A stimulus that holds both data inputs low covers mux2's inputs,
	// so it is admitted, but it toggles no output: each delay point
	// fails in its delay stage.
	rec = postSweep(t, s, "/v1/sweeps?stream=ndjson", `{
	  "base": {"circuit": "mux2", "techs": ["cnfet"], "analyses": ["delay"],
	    "stimulus": {"static": {"D0": false, "D1": false}, "pulse": "S"}},
	  "axes": {"seeds": [1, 2, 3]}
	}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream status = %d: %s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sweeps", nil))
	var list struct {
		Sweeps []sweepStatus `json:"sweeps"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil || len(list.Sweeps) != 2 {
		t.Fatalf("listing = %s (%v)", rec.Body.String(), err)
	}
	a, b := list.Sweeps[0].Progress, list.Sweeps[1].Progress
	if a != async.Progress || a.Total != 2 || a.Done != 2 || a.Failed != 0 || a.TotalStages == 0 {
		t.Fatalf("async progress = %+v (polled %+v), want its own 2 points", a, async.Progress)
	}
	if b.Total != 3 || b.Done != 3 || b.Failed != 3 {
		t.Fatalf("streamed progress = %+v, want its own 3 failed points", b)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for name, want := range map[string]int64{
		"cnfetd_sweep_points_total":        a.Total + b.Total,
		"cnfetd_sweep_points_done_total":   a.Done + b.Done,
		"cnfetd_sweep_points_failed_total": a.Failed + b.Failed,
		"cnfetd_sweep_stages_total":        a.TotalStages + b.TotalStages,
		"cnfetd_sweep_stages_cached_total": a.CachedStages + b.CachedStages,
	} {
		if got := metricValue(t, body, name); got != float64(want) {
			t.Errorf("%s = %v, want %d (the sum of both sweeps)", name, got, want)
		}
	}
}

func TestSweepStreamNDJSON(t *testing.T) {
	s := testServer(t)
	spec := `{
	  "base": {"techs": ["cnfet"], "analyses": ["area"]},
	  "axes": {"circuits": ["mux2", "dec2"], "placements": ["rows", "shelves"]}
	}`
	rec := postSweep(t, s, "/v1/sweeps?stream=ndjson", spec)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	var points, dones int
	var last fabric.StreamLine
	sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line fabric.StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Point != nil:
			points++
		case line.Done:
			dones++
			last = line
		}
	}
	if points != 4 || dones != 1 {
		t.Fatalf("streamed %d points and %d done lines, want 4 and 1", points, dones)
	}
	if last.Error != "" || last.Report == nil || len(last.Report.Points) != 4 {
		t.Fatalf("final line = %+v", last)
	}
}

func TestSweepValidation(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		name     string
		body     string
		wantCode string
	}{
		{"malformed json", `{"axes": `, "bad_json"},
		{"unknown field", `{"axis": {}}`, "bad_json"},
		{"stage timeout override", `{"base": {"circuit": "mux2", "stage_timeout_ms": 600000}, "axes": {"seeds": [1]}}`, "bad_json"},
		{"unknown circuit", `{"base": {}, "axes": {"circuits": ["nonesuch"]}}`, "unknown_circuit"},
		{"unknown placement", `{"base": {"circuit": "mux2"}, "axes": {"placements": ["spiral"]}}`, "unknown_placement"},
		{"zip mismatch", `{"base": {"circuit": "mux2"}, "zip": true, "axes": {"mc_tubes": [1, 2], "seeds": [1]}}`, "bad_spec"},
		// Admission runs the check Kit.Run makes before its first stage,
		// so a spec whose every point would fail is refused up front.
		{"unparsable expression", `{"base": {"exprs": {"Y": "A+"}}, "axes": {"seeds": [1, 2]}}`, "bad_request"},
		{"immunity without cnfet", `{"base": {"circuit": "mux2", "techs": ["cmos"], "analyses": ["immunity"]}, "axes": {"seeds": [1, 2]}}`, "bad_request"},
		{"delay without stimulus", `{"base": {"exprs": {"Y": "A*B"}, "analyses": ["delay"]}, "axes": {"seeds": [1, 2]}}`, "bad_request"},
		{"stimulus names a missing input", `{"base": {"netlist": "module x\ninput A\noutput Y\nu1 INV_1X A=A OUT=Y\nendmodule",
			"stimulus": {"pulse": "B"}, "analyses": ["energy"]}, "axes": {"seeds": [1, 2]}}`, "bad_request"},
	}
	for _, tc := range cases {
		rec := postSweep(t, s, "/v1/sweeps", tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", tc.name, rec.Code, rec.Body.String())
			continue
		}
		if code, msg := decodeError(t, rec); code != tc.wantCode {
			t.Errorf("%s: error code = %q (%s), want %q", tc.name, code, msg, tc.wantCode)
		}
	}
}

func TestSweepPointCap(t *testing.T) {
	kit := testKit(t)
	s := NewServer(kit, WithSweepLimits(4, 8))
	over := `{"base": {"circuit": "mux2", "techs": ["cnfet"]},
	          "axes": {"seeds": [1, 2, 3, 4, 5]}}`
	rec := postSweep(t, s, "/v1/sweeps", over)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if code, _ := decodeError(t, rec); code != "too_many_points" {
		t.Fatalf("code = %q, want too_many_points", code)
	}
}

func TestSweepUnknownID(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sweeps/sw-999", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/sweeps/sw-999", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("delete status = %d, want 404", rec.Code)
	}
}

func TestSweepCancel(t *testing.T) {
	s := testServer(t)
	// A larger sweep so the cancel lands while it runs; if it finishes
	// first the test still passes (state done), so no flakiness.
	spec := `{
	  "base": {"techs": ["cnfet"], "analyses": ["area", "immunity"]},
	  "axes": {"circuits": ["rca4"], "mc_tubes": [64, 128, 256], "seeds": [11, 12, 13, 14]}
	}`
	rec := postSweep(t, s, "/v1/sweeps", spec)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/sweeps/"+created.ID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel status = %d: %s", rec.Code, rec.Body.String())
	}
	var st sweepStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != sweepCancelled && st.State != sweepDone {
		t.Fatalf("state after cancel = %q", st.State)
	}

	// The kit cache stays consistent: rerunning the same spec in-process
	// succeeds and reuses whatever the cancelled run completed.
	var parsed sweep.Spec
	if err := json.Unmarshal([]byte(spec), &parsed); err != nil {
		t.Fatal(err)
	}
	rep, err := sweep.Run(context.Background(), kitVal, parsed)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || len(rep.Points) != 12 {
		t.Fatalf("rerun after cancel: failed=%d points=%d", rep.Failed, len(rep.Points))
	}
}
