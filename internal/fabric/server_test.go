package fabric_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cnfetdk/internal/fabric"
	"cnfetdk/internal/flow"
	"cnfetdk/internal/promtext"
	"cnfetdk/internal/service"
	"cnfetdk/internal/sweep"
)

// startCoordServer serves c's routes the way cnfetd -coordinator does:
// from a daemon's service mux.
func startCoordServer(t *testing.T, c *fabric.Coordinator) *httptest.Server {
	t.Helper()
	kit, err := flow.New(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewServer(kit, service.WithCoordinator(c)))
	t.Cleanup(srv.Close)
	return srv
}

// TestServerSweepStream drives a full fabric sweep over the HTTP
// surface, the way cnfetsweep -workers does: NDJSON lines stream out
// unbuffered and the final line carries the merged report.
func TestServerSweepStream(t *testing.T) {
	want := refCanonical(t)
	c := testCoord(fabric.Options{})
	w := newWorker(t, nil)
	if _, err := c.Join(w.URL, true); err != nil {
		t.Fatal(err)
	}
	coord := startCoordServer(t, c)

	body, err := json.Marshal(identitySpec())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(coord.URL+"/v1/fabric/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	if ab := resp.Header.Get("X-Accel-Buffering"); ab != "no" {
		t.Errorf("X-Accel-Buffering = %q, want \"no\" (proxies must not batch the stream)", ab)
	}

	var points, leases int
	var last fabric.StreamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		var line fabric.StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if line.Point != nil {
			points++
			if line.Worker != w.URL {
				t.Errorf("point attributed to %q, want %q", line.Worker, w.URL)
			}
		}
		if line.Lease != nil {
			leases++
		}
		last = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if points != 12 {
		t.Errorf("streamed %d point lines, want 12", points)
	}
	if leases < 8 {
		t.Errorf("streamed %d lease events, want dispatch+done for 4 leases", leases)
	}
	if !last.Done || last.Error != "" || last.Report == nil {
		t.Fatalf("final line = %+v", last)
	}
	got, err := last.Report.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("report streamed over the fabric API differs from the single-process run")
	}
}

// TestServerSweepAdmission: admission failures are real HTTP errors,
// never a 200 stream that immediately fails.
func TestServerSweepAdmission(t *testing.T) {
	c := testCoord(fabric.Options{MaxSweepPoints: 4})
	coord := startCoordServer(t, c)
	for name, tc := range map[string]struct {
		body string
		code string
	}{
		"bad json":   {body: "{", code: "bad_json"},
		"over quota": {body: mustSpecJSON(t, identitySpec()), code: "too_many_points"},
		"bad axis":   {body: `{"base":{"techs":["cnfet"]},"axes":{"circuits":["nope"]}}`, code: "unknown_circuit"},
		"windowed":   {body: mustSpecJSON(t, identitySpec().Slice(0, 2)), code: "bad_spec"},
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(coord.URL+"/v1/fabric/sweeps", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			var body struct {
				Error struct{ Code string }
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			if body.Error.Code != tc.code {
				t.Fatalf("error code = %q, want %q", body.Error.Code, tc.code)
			}
		})
	}
}

func mustSpecJSON(t *testing.T, spec sweep.Spec) string {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServerProbesAndRegistry walks the enrollment API and the fleet
// gauges: a coordinator reports zero live workers until its fleet has a
// member, and the daemon's /metrics lists its worker-role series, then
// the fabric's.
func TestServerProbesAndRegistry(t *testing.T) {
	c := testCoord(fabric.Options{})
	coord := startCoordServer(t, c)
	metrics := func() string {
		var sb strings.Builder
		pw := promtext.New(&sb)
		c.WriteMetrics(pw)
		if err := pw.Err(); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}

	if m := metrics(); !strings.Contains(m, "cnfet_fabric_workers_live 0\n") {
		t.Fatalf("metrics with no workers lack a zero live gauge:\n%s", m)
	}

	// Enroll over the API, as cnfetd -join does.
	jr, _ := json.Marshal(fabric.JoinRequest{URL: "http://worker-a:8065"})
	resp, err := http.Post(coord.URL+"/v1/fabric/workers", "application/json", bytes.NewReader(jr))
	if err != nil {
		t.Fatal(err)
	}
	var ack fabric.JoinResponse
	json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ack.HeartbeatSeconds <= 0 {
		t.Fatalf("join = %d %+v", resp.StatusCode, ack)
	}

	resp, err = http.Get(coord.URL + "/v1/fabric/workers")
	if err != nil {
		t.Fatal(err)
	}
	var listing map[string]any
	json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if listing["workers"] == nil {
		t.Fatal("registry listing missing")
	}

	badJoin, _ := json.Marshal(fabric.JoinRequest{URL: "worker-a:8065"})
	resp, err = http.Post(coord.URL+"/v1/fabric/workers", "application/json", bytes.NewReader(badJoin))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("schemeless join = %d, want 400", resp.StatusCode)
	}

	m := metrics()
	for _, want := range []string{
		"# TYPE cnfet_fabric_workers_live gauge",
		"cnfet_fabric_workers_live 1",
		"cnfet_fabric_workers_registered 1",
		"cnfet_fabric_queue_depth 0",
		`cnfet_fabric_worker_points_total{worker="http://worker-a:8065"} 0`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics lack %q:\n%s", want, m)
		}
	}

	resp, err = http.Get(coord.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	worker := strings.Index(string(scrape), "cnfetd_uptime_seconds ")
	fleet := strings.Index(string(scrape), "cnfet_fabric_workers_live 1\n")
	if worker < 0 || fleet < worker {
		t.Fatalf("/metrics should list the worker-role series, then the fabric's:\n%s", scrape)
	}
}

// TestJoinLoopEnrollsAndHeartbeats: the worker-side loop enrolls
// immediately, reports the transition, and keeps the worker live via
// heartbeats at the coordinator's advertised cadence.
func TestJoinLoopEnrollsAndHeartbeats(t *testing.T) {
	c := testCoord(fabric.Options{HeartbeatTTL: 90 * time.Millisecond})
	coord := startCoordServer(t, c)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	joined := make(chan bool, 16)
	go fabric.JoinLoop(ctx, nil, coord.URL, "http://worker-a:8065", func(ok bool, err error) {
		joined <- ok
	})
	select {
	case ok := <-joined:
		if !ok {
			t.Fatal("first enrollment attempt failed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("JoinLoop never enrolled")
	}
	// Past several TTL windows the worker must still be live — the loop
	// heartbeats at TTL/3.
	time.Sleep(250 * time.Millisecond)
	ws := c.Workers()
	if len(ws) != 1 || !ws[0].Alive {
		t.Fatalf("registry after heartbeat window = %+v, want one live worker", ws)
	}
}

// TestJoinOnceErrors surfaces coordinator-side rejections to the caller.
func TestJoinOnceErrors(t *testing.T) {
	c := testCoord(fabric.Options{})
	coord := startCoordServer(t, c)
	if _, err := fabric.JoinOnce(context.Background(), nil, coord.URL, "not a url"); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("JoinOnce with a junk self URL: err = %v", err)
	}
	if _, err := fabric.JoinOnce(context.Background(), nil, "http://127.0.0.1:1", "http://worker:1"); err == nil {
		t.Fatal("JoinOnce against a dead coordinator succeeded")
	}
}
