package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"cnfetdk/internal/coopt"
	"cnfetdk/internal/fabric"
	"cnfetdk/internal/flow"
	"cnfetdk/internal/sweep"
)

// TestSpecRoutesMatchLocalRuns: a spec posted to /v1/sweeps (async and
// streamed) and a search posted to /v1/coopt answer the canonical bytes
// sweep.Run and coopt.Search produce for the same spec on a local kit.
// The daemon admits each spec against its own limit and writes nothing
// back into it.
func TestSpecRoutesMatchLocalRuns(t *testing.T) {
	ctx := context.Background()
	local, err := flow.New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s := testServer(t)

	const specJSON = `{
	  "name": "local-vs-daemon",
	  "base": {"techs": ["cnfet"], "analyses": ["area", "immunity"], "mc_tubes": 8},
	  "axes": {"circuits": ["mux2", "dec2"], "seeds": [1, 2]}
	}`
	var spec sweep.Spec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		t.Fatal(err)
	}
	rep, err := sweep.Run(ctx, local, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	canonical := func(route string, r *sweep.Report) {
		t.Helper()
		if r == nil {
			t.Fatalf("%s: no report", route)
		}
		got, err := r.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: canonical report differs from the local run:\n%s\nwant\n%s", route, got, want)
		}
	}

	rec := postSweep(t, s, "/v1/sweeps", specJSON)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async status = %d: %s", rec.Code, rec.Body.String())
	}
	var created struct {
		URL string `json:"url"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	canonical("/v1/sweeps", waitSweep(t, s, created.URL).Report)

	rec = postSweep(t, s, "/v1/sweeps?stream=ndjson", specJSON)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream status = %d: %s", rec.Code, rec.Body.String())
	}
	var last fabric.StreamLine
	sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		last = fabric.StreamLine{}
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
	}
	if !last.Done || last.Error != "" {
		t.Fatalf("final stream line = %+v", last)
	}
	canonical("/v1/sweeps?stream=ndjson", last.Report)

	if testing.Short() {
		t.Skip("transient-heavy co-optimization")
	}
	const cooptJSON = `{"circuit": "mux2", "cnt_count_cvs": [0.1, 0.3], "alignment_ps": [0.05],
	  "pitches_nm": [5, 13], "drives": [1, 2], "var_samples": 2, "seed": 1}`
	var cs coopt.Spec
	if err := json.Unmarshal([]byte(cooptJSON), &cs); err != nil {
		t.Fatal(err)
	}
	front, err := coopt.Search(ctx, coopt.KitRunner{Kit: local}, cs)
	if err != nil {
		t.Fatal(err)
	}
	wantFront, err := front.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	rec = postCoopt(t, s, cooptJSON)
	if rec.Code != http.StatusOK {
		t.Fatalf("coopt status = %d: %s", rec.Code, rec.Body.String())
	}
	if got := bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")); !bytes.Equal(got, wantFront) {
		t.Fatalf("/v1/coopt front differs from the local search:\n%s\nwant\n%s", got, wantFront)
	}
}

// TestSpecRoutesAdmitAlike: the three spec routes refuse a spec that
// says how to run it (workers, max_points) as bad_json, and map every
// admission failure to the same code: too_many_points over the route's
// limit, the flow sentinel's code for an unknown circuit, bad_spec for
// anything else.
func TestSpecRoutesAdmitAlike(t *testing.T) {
	s := NewServer(testKit(t), WithSweepLimits(4, 8),
		WithCoordinator(fabric.New(fabric.Options{MaxSweepPoints: 4})))
	sweepRoutes := []string{"/v1/sweeps", "/v1/sweeps?stream=ndjson", "/v1/fabric/sweeps"}
	cases := []struct {
		name   string
		routes []string
		body   string
		code   string
	}{
		{"sweep workers", sweepRoutes, `{"base": {"circuit": "mux2"}, "axes": {"seeds": [1, 2]}, "workers": 2}`, "bad_json"},
		{"sweep max_points", sweepRoutes, `{"base": {"circuit": "mux2"}, "axes": {"seeds": [1, 2]}, "max_points": 2}`, "bad_json"},
		{"sweep over limit", sweepRoutes, `{"base": {"circuit": "mux2"}, "axes": {"seeds": [1, 2, 3, 4, 5]}}`, "too_many_points"},
		{"sweep unknown circuit", sweepRoutes, `{"base": {"techs": ["cnfet"]}, "axes": {"circuits": ["nope"]}}`, "unknown_circuit"},
		{"sweep zip mismatch", sweepRoutes, `{"base": {"circuit": "mux2"}, "zip": true, "axes": {"mc_tubes": [1, 2], "seeds": [1]}}`, "bad_spec"},
		{"coopt workers", []string{"/v1/coopt"}, `{"circuit": "mux2", "cnt_count_cvs": [0.1], "alignment_ps": [0.05], "workers": 2}`, "bad_json"},
		{"coopt max_points", []string{"/v1/coopt"}, `{"circuit": "mux2", "cnt_count_cvs": [0.1], "alignment_ps": [0.05], "max_points": 2}`, "bad_json"},
		// The default grid measures 4 count CVs x 3 alignment probabilities.
		{"coopt over limit", []string{"/v1/coopt"}, `{"circuit": "mux2"}`, "too_many_points"},
		{"coopt unknown circuit", []string{"/v1/coopt"}, `{"circuit": "nope", "cnt_count_cvs": [0.1], "alignment_ps": [0.05]}`, "unknown_circuit"},
		{"coopt bad grid", []string{"/v1/coopt"}, `{"circuit": "mux2", "drives": [-1]}`, "bad_spec"},
	}
	for _, tc := range cases {
		for _, route := range tc.routes {
			rec := postSweep(t, s, route, tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s on %s: status = %d, want 400 (%s)", tc.name, route, rec.Code, rec.Body.String())
				continue
			}
			if code, msg := decodeError(t, rec); code != tc.code {
				t.Errorf("%s on %s: code = %q (%s), want %q", tc.name, route, code, msg, tc.code)
			}
			if strings.Contains(route, "stream") && rec.Header().Get("Content-Type") == "application/x-ndjson" {
				t.Errorf("%s on %s: the refusal opened a stream", tc.name, route)
			}
		}
	}
}
