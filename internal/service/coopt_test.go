package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cnfetdk/internal/coopt"
)

func postCoopt(t *testing.T, s *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/coopt", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestCooptValidationErrors(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		name, body, code string
	}{
		{"empty circuit", `{}`, "bad_spec"},
		{"bad yield target", `{"circuit": "mux2", "yield_target": 1.5}`, "bad_spec"},
		{"unknown field", `{"circuit": "mux2", "bogus": 1}`, "bad_json"},
		{"malformed json", `{`, "bad_json"},
	}
	for _, tc := range cases {
		rec := postCoopt(t, s, tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, rec.Code, rec.Body.String())
			continue
		}
		if code, _ := decodeError(t, rec); code != tc.code {
			t.Errorf("%s: error code %q, want %s", tc.name, code, tc.code)
		}
	}
}

func TestCooptFront(t *testing.T) {
	if testing.Short() {
		t.Skip("transient-heavy")
	}
	s := testServer(t)
	body := `{
		"circuit": "mux2",
		"yield_target": 0.99,
		"cnt_count_cvs": [0.1, 0.3],
		"alignment_ps": [0.05],
		"pitches_nm": [5, 13],
		"drives": [1, 2],
		"var_samples": 2,
		"seed": 1
	}`
	rec := postCoopt(t, s, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var front coopt.Front
	if err := json.Unmarshal(rec.Body.Bytes(), &front); err != nil {
		t.Fatalf("response is not a front: %v", err)
	}
	if front.Evaluated != 8 || len(front.Candidates) == 0 {
		t.Fatalf("front evaluated %d / %d on front", front.Evaluated, len(front.Candidates))
	}
	// The daemon answers with the canonical encoding — byte-comparable
	// to a local Search with the same spec.
	canon, err := front.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimRight(rec.Body.String(), "\n"); got != string(canon) {
		t.Fatal("daemon response is not the canonical front encoding")
	}
	// Identical request replayed: byte-identical answer.
	if rec2 := postCoopt(t, s, body); rec2.Body.String() != rec.Body.String() {
		t.Fatal("replayed coopt request answered differently")
	}
}
