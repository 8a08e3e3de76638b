package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cnfetdk/internal/flow"
)

var (
	kitOnce sync.Once
	kitVal  *flow.Kit
	kitErr  error
)

func testServer(t *testing.T) *Server {
	t.Helper()
	kitOnce.Do(func() { kitVal, kitErr = flow.New(context.Background()) })
	if kitErr != nil {
		t.Fatal(kitErr)
	}
	return NewServer(kitVal)
}

func postJob(t *testing.T, s *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func decodeError(t *testing.T, rec *httptest.ResponseRecorder) (code, message string) {
	t.Helper()
	var body struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body is not structured JSON: %v (%s)", err, rec.Body.String())
	}
	return body.Error.Code, body.Error.Message
}

func TestHealthz(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" || body["cnfet_cells"].(float64) == 0 {
		t.Fatalf("healthz body = %v", body)
	}
}

// TestCircuitsListing: the listing names every registry circuit with
// its instance count. It is built on the process's first GET (no other
// test in this package lists circuits), so a concurrent pair of first
// GETs, which -race checks, and a later GET must return the same bytes.
func TestCircuitsListing(t *testing.T) {
	s := testServer(t)
	get := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/circuits", nil))
		return rec
	}
	var first [2]*httptest.ResponseRecorder
	var wg sync.WaitGroup
	for i := range first {
		wg.Add(1)
		go func() {
			defer wg.Done()
			first[i] = get()
		}()
	}
	wg.Wait()
	rec := get()
	for _, r := range first {
		if !bytes.Equal(r.Body.Bytes(), rec.Body.Bytes()) {
			t.Fatalf("listing bodies differ:\n%s\n%s", r.Body.String(), rec.Body.String())
		}
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	var body struct {
		Circuits []struct {
			Name      string `json:"name"`
			Instances int    `json:"instances"`
		} `json:"circuits"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Circuits) < 4 {
		t.Fatalf("%d circuits listed, want >= 4", len(body.Circuits))
	}
	names := map[string]bool{}
	for _, c := range body.Circuits {
		names[c.Name] = true
		if c.Instances == 0 {
			t.Errorf("circuit %s lists no instances", c.Name)
		}
	}
	if !names["fulladder"] {
		t.Fatal("registry listing misses fulladder")
	}
}

func TestJobValidationErrors(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		name     string
		body     string
		wantCode string
	}{
		{"malformed json", `{"circuit": `, "bad_json"},
		{"unknown field", `{"circus": "fulladder"}`, "bad_json"},
		// The kit's -stage-timeout is the only stage bound.
		{"stage timeout override", `{"circuit": "mux2", "stage_timeout_ms": 600000}`, "bad_json"},
		{"no source", `{}`, "bad_request"},
		{"unknown circuit", `{"circuit": "nonesuch"}`, "unknown_circuit"},
		{"unknown tech", `{"circuit": "mux2", "techs": ["finfet"]}`, "unknown_tech"},
		{"unknown analysis", `{"circuit": "mux2", "analyses": ["power"]}`, "unknown_analysis"},
		{"unknown placement", `{"circuit": "mux2", "placement": "spiral"}`, "unknown_placement"},
	}
	for _, tc := range cases {
		rec := postJob(t, s, tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", tc.name, rec.Code, rec.Body.String())
			continue
		}
		if code, msg := decodeError(t, rec); code != tc.wantCode {
			t.Errorf("%s: error code = %q (%s), want %q", tc.name, code, msg, tc.wantCode)
		}
	}
}

func TestJobMethodNotAllowed(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", rec.Code)
	}
}

func TestFullAdderJob(t *testing.T) {
	if testing.Short() {
		t.Skip("transient-heavy")
	}
	s := testServer(t)
	rec := postJob(t, s, `{"circuit": "fulladder", "analyses": ["area", "delay", "energy"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var res flow.Result
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Circuit != "fulladder" || len(res.Techs) != 2 {
		t.Fatalf("result = %+v, want fulladder over both techs", res)
	}
	if g := res.Gains["delay"]; g < 2.5 || g > 5 {
		t.Fatalf("delay gain over HTTP = %.2f, want ~3.5", g)
	}
	if res.Techs["cnfet"].AreaLam2 <= 0 {
		t.Fatal("missing CNFET area")
	}
}

// TestSTAJob exercises the sta analysis through the HTTP surface: the
// levelized timing report must arrive in the JSON result with a
// positive delay and a non-trivial critical path.
func TestSTAJob(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization-backed flow")
	}
	s := testServer(t)
	rec := postJob(t, s, `{"circuit": "mux2", "techs": ["cnfet"], "analyses": ["sta"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var res flow.Result
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	sta := res.Techs["cnfet"].STA
	if sta == nil {
		t.Fatalf("no sta report in %s", rec.Body.String())
	}
	if sta.DelayS <= 0 || sta.Levels <= 0 || len(sta.CriticalPath) < 2 {
		t.Fatalf("sta report malformed: %+v", sta)
	}
	if sta.Instances != res.Instances {
		t.Fatalf("sta instances %d != result instances %d", sta.Instances, res.Instances)
	}
}

// TestJobThatDoesNotEncodeIs500: a job whose result holds a value JSON
// cannot carry (a wire load of 1e308 F/nm drives the sta delays to
// -Inf) answers 500 encode_failed, because the answer is rendered
// before the status is committed; a 200 with an empty body would tell
// the client nothing.
func TestJobThatDoesNotEncodeIs500(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization-backed flow")
	}
	s := testServer(t)
	rec := postJob(t, s, `{"circuit": "mux2", "techs": ["cnfet"], "analyses": ["sta"], "wire_cap_per_nm": 1e308}`)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500: %s", rec.Code, rec.Body.String())
	}
	if code, msg := decodeError(t, rec); code != "encode_failed" || !strings.Contains(msg, "unsupported value") {
		t.Fatalf("error = %s: %s, want encode_failed", code, msg)
	}
}

func TestConcurrentIdenticalJobsShareCache(t *testing.T) {
	if testing.Short() {
		t.Skip("flow")
	}
	s := testServer(t)
	body := `{"circuit": "mux4", "techs": ["cnfet"], "analyses": ["area"]}`

	const n = 8
	var wg sync.WaitGroup
	results := make([]*httptest.ResponseRecorder, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = postJob(t, s, body)
		}()
	}
	wg.Wait()

	var first []byte
	for i, rec := range results {
		if rec.Code != http.StatusOK {
			t.Fatalf("job %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		// Strip the per-run stage traces (cached flags and timings
		// legitimately differ) and compare the payloads.
		var res flow.Result
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		res.Stages = nil
		blob, _ := json.Marshal(res)
		if first == nil {
			first = blob
		} else if !bytes.Equal(first, blob) {
			t.Fatalf("job %d diverged:\n%s\nvs\n%s", i, first, blob)
		}
	}

	// A follow-up identical job must be served from the shared memo
	// cache: every keyed stage reports cached.
	rec := postJob(t, s, body)
	var res flow.Result
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Stages {
		if !st.Cached {
			t.Errorf("stage %s not served from cache on repeat", st.Stage)
		}
	}
}
