package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cnfetdk/internal/fault"
	"cnfetdk/internal/flow"
)

// hangKitServer builds a server whose kit hangs every flow stage until
// its context cancels — a deterministic way to hold a sweep mid-run.
func hangKitServer(t *testing.T) *Server {
	t.Helper()
	inj := fault.MustNew(fault.Plan{
		Name:  "hang-all-stages",
		Rules: []fault.Rule{{Point: "flow.stage.*", Action: fault.ActionHang}},
	})
	t.Cleanup(func() { inj.Close() })
	kit, err := flow.New(context.Background(), flow.WithFaults(inj))
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(kit)
}

const hangSpecJSON = `{
  "name": "hang",
  "base": {"techs": ["cnfet"], "analyses": ["area"]},
  "axes": {"circuits": ["mux2"], "seeds": [1, 2, 3]}
}`

// waitForState polls the job table until the one tracked sweep reaches
// state (or the deadline passes) and returns its status.
func waitForState(t *testing.T, s *Server, state string, deadline time.Duration) sweepStatus {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		s.sweepMu.Lock()
		var got *sweepJob
		for _, j := range s.sweeps {
			got = j
		}
		var st sweepStatus
		if got != nil {
			st = s.status(got, false)
		}
		s.sweepMu.Unlock()
		if got != nil && st.State == state {
			return st
		}
		if time.Now().After(end) {
			t.Fatalf("sweep never reached state %q (last: %+v)", state, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamedSweepDisconnectCancelsAndFrees is the goroutine-accounting
// regression test for the streamed-sweep path: a client that vanishes
// mid-NDJSON must cancel the underlying sweep, settle its tracked job as
// cancelled (freeing the retention slot), and leak no goroutines.
func TestStreamedSweepDisconnectCancelsAndFrees(t *testing.T) {
	s := hangKitServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()

	baseline, _ := fault.Settle(fault.Goroutines(), 0, time.Second)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		srv.URL+"/v1/sweeps?stream=ndjson", strings.NewReader(hangSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}

	// The job is tracked while the stream runs.
	waitForState(t, s, sweepRunning, 5*time.Second)
	st := waitForState(t, s, sweepRunning, 5*time.Second)
	if !st.Streamed {
		t.Fatalf("streamed sweep not marked streamed: %+v", st)
	}

	// Vanish mid-stream. The hung stages release on cancellation, the
	// sweep settles as cancelled, and the slot becomes evictable.
	cancel()
	st = waitForState(t, s, sweepCancelled, 10*time.Second)
	if st.Error == "" {
		t.Fatal("cancelled streamed sweep recorded no error")
	}

	// Everything the request spawned must wind down.
	http.DefaultClient.CloseIdleConnections()
	if n, ok := fault.Settle(baseline, 2, 10*time.Second); !ok {
		t.Fatalf("goroutines leaked after disconnect: baseline %d, now %d", baseline, n)
	}

	// The cancelled job is evictable: flood the store and confirm the
	// slot is reclaimed rather than pinned by a dead stream.
	s.sweepMu.Lock()
	s.maxStored = 1
	s.evictSweepsLocked()
	left := len(s.sweeps)
	s.sweepMu.Unlock()
	if left > 1 {
		t.Fatalf("cancelled streamed sweep still pinned %d slots", left)
	}
}

// TestServerDeleteCancelsStreamedSweep pins the other direction:
// DELETE /v1/sweeps/{id} cancels a streamed sweep server-side.
func TestServerDeleteCancelsStreamedSweep(t *testing.T) {
	s := hangKitServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()

	go func() {
		resp, err := http.Post(srv.URL+"/v1/sweeps?stream=ndjson", "application/json", strings.NewReader(hangSpecJSON))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	st := waitForState(t, s, sweepRunning, 5*time.Second)

	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sweeps/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got sweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.State != sweepCancelled {
		t.Fatalf("state after DELETE = %q, want cancelled", got.State)
	}
}

// TestDrainCoversStreamedAndCoopt pins the unified drain: Drain blocks
// on a running streamed sweep and on in-flight coopt searches, and
// reports false when the grace expires first.
func TestDrainCoversStreamedAndCoopt(t *testing.T) {
	s := hangKitServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		srv.URL+"/v1/sweeps?stream=ndjson", strings.NewReader(hangSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	waitForState(t, s, sweepRunning, 5*time.Second)

	short, cancelShort := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if s.Drain(short) {
		t.Fatal("Drain claimed success with a streamed sweep running")
	}
	cancelShort()

	cancel() // client disconnect settles the sweep
	waitForState(t, s, sweepCancelled, 10*time.Second)
	long, cancelLong := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelLong()
	if !s.Drain(long) {
		t.Fatal("Drain failed with no work in flight")
	}

	// Coopt runs hold the drain open too.
	s.cooptEnter()
	short2, cancelShort2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if s.Drain(short2) {
		t.Fatal("Drain claimed success with a coopt search in flight")
	}
	cancelShort2()
	s.cooptExit()
	long2, cancelLong2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelLong2()
	if !s.Drain(long2) {
		t.Fatal("Drain failed after coopt exit")
	}
}

// TestHandlerPanicRecovery pins the service recovery middleware, which
// every route (the fabric coordinator's included) runs behind: a panic
// before the response starts answers a structured 500, a mid-stream
// panic neither hangs nor rewrites the status, and both bump the
// counter.
func TestHandlerPanicRecovery(t *testing.T) {
	s := testServer(t)
	s.mux.HandleFunc("GET /test/boom", func(http.ResponseWriter, *http.Request) {
		panic("service kaboom")
	})
	s.mux.HandleFunc("GET /test/boom-late", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		panic("late kaboom")
	})
	srv := httptest.NewServer(s)
	defer srv.Close()

	for _, tc := range []struct {
		path   string
		status int
		code   string // "" for a response already under way
	}{
		{"/test/boom", http.StatusInternalServerError, "panic"},
		{"/test/boom-late", http.StatusOK, ""},
	} {
		before := s.panics.Load()
		resp, err := http.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: panicking handler answered %d, want %d", tc.path, resp.StatusCode, tc.status)
		}
		if tc.code != "" {
			var e struct {
				Error apiError `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != tc.code || !strings.Contains(e.Error.Message, "kaboom") {
				t.Fatalf("%s: panic 500 body = %q (%v)", tc.path, body, err)
			}
		}
		if s.panics.Load() != before+1 {
			t.Fatalf("%s: panic counter = %d, want %d", tc.path, s.panics.Load(), before+1)
		}
	}

	// The counter reaches /metrics.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(blob), "cnfetd_handler_panics_total") {
		t.Fatal("metrics missing cnfetd_handler_panics_total")
	}
}

// TestDeepExpressionIsBadRequest: an inline expression nested millions
// of levels deep fits under the body cap. Parentheses and postfix quotes
// each once ran the parser or the netlist stage out of stack, which no
// recover catches; now each body is a 400 at admission on the job and
// the sweep route alike, and the daemon keeps serving.
func TestDeepExpressionIsBadRequest(t *testing.T) {
	s := testServer(t)
	for name, expr := range map[string]string{
		"parentheses": strings.Repeat("(", 2_097_120) + "A" + strings.Repeat(")", 2_097_120),
		"quotes":      "A" + strings.Repeat("'", 4_194_240),
	} {
		for _, route := range []struct{ target, body string }{
			{"/v1/jobs", `{"exprs":{"Y":"` + expr + `"}}`},
			{"/v1/sweeps", `{"base":{"exprs":{"Y":"` + expr + `"}},"axes":{"seeds":[1]}}`},
		} {
			if len(route.body) > maxBody {
				t.Fatalf("%s %s: body %d bytes exceeds the %d-byte cap", name, route.target, len(route.body), maxBody)
			}
			rec := postSweep(t, s, route.target, route.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s %s: status %d, want 400 (%s)", name, route.target, rec.Code, rec.Body.String())
			}
			if code, msg := decodeError(t, rec); code != "bad_request" || !strings.Contains(msg, "nesting deeper than") {
				t.Fatalf("%s %s: error %s %q, want bad_request naming the nesting bound", name, route.target, code, msg)
			}
			live := httptest.NewRecorder()
			s.ServeHTTP(live, httptest.NewRequest(http.MethodGet, "/livez", nil))
			if live.Code != http.StatusOK {
				t.Fatalf("%s %s: livez = %d after the request, want 200", name, route.target, live.Code)
			}
		}
	}
}
