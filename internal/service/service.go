// Package service exposes the design kit as an HTTP design service: one
// shared flow.Kit (and therefore one shared memo cache) executes
// serialized flow.Request jobs concurrently, so identical in-flight jobs
// collapse onto one computation and repeated jobs return from cache.
//
// Routes:
//
//	POST   /v1/jobs        — run a flow.Request, respond with a flow.Result
//	POST   /v1/sweeps      — start a sweep.Spec batch (async by default;
//	                         ?stream=ndjson streams completed points)
//	GET    /v1/sweeps      — list tracked sweeps
//	GET    /v1/sweeps/{id} — poll one sweep's progress / final report
//	DELETE /v1/sweeps/{id} — cancel a running sweep
//	POST   /v1/coopt       — run a coopt.Spec processing/circuit
//	                         co-optimization, respond with the canonical
//	                         Pareto front
//	GET    /v1/circuits    — list the named-circuit registry
//	GET    /v1/cache       — artifact-store statistics (per-tier
//	                         hits/misses/bytes/evictions)
//	POST   /v1/cache/purge — drop every completed stage result from
//	                         every store tier
//	GET    /healthz        — liveness plus kit/cache statistics (legacy
//	                         combined endpoint)
//	GET    /livez          — liveness only (200 while the process serves)
//	GET    /readyz         — readiness (503 while not ready to take
//	                         work — e.g. a fabric worker that has not
//	                         reached its coordinator yet)
//	GET    /metrics        — Prometheus-style process metrics
//
// WithCoordinator (cnfetd -coordinator) adds the sweep-fabric
// coordinator's routes, and its metrics to /metrics:
//
//	POST   /v1/fabric/workers — worker enrollment / heartbeat
//	GET    /v1/fabric/workers — registry listing
//	POST   /v1/fabric/sweeps  — shard a sweep.Spec across the fleet,
//	                            streaming NDJSON progress
//
// Errors are structured JSON ({"error": {"code", "message"}}) with the
// typed flow sentinels mapped to 400s. Every route runs behind one
// panic recovery, and request bodies go through one strict decoder.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"cnfetdk/internal/fabric"
	"cnfetdk/internal/fault"
	"cnfetdk/internal/flow"
	"cnfetdk/internal/pipeline"
	"cnfetdk/internal/promtext"
)

// Server handles the design-service routes over one shared kit.
type Server struct {
	kit     *flow.Kit
	mux     *http.ServeMux
	started time.Time
	jobs    atomic.Int64 // jobs accepted since start
	ready   atomic.Bool  // readiness for /readyz (true unless flipped)
	panics  atomic.Int64 // handler panics converted to 500s
	logf    func(format string, args ...any)
	coord   *fabric.Coordinator // nil unless WithCoordinator

	// points sums every sweep's points (async and streamed) into
	// process-lifetime counters for /metrics: each sweep's OnPoint
	// observer (countPoint) counts into it next to the job's own
	// Progress.
	points Progress

	// Sweep execution limits and store (see sweeps.go).
	baseCtx        context.Context // lifetime of detached (async) sweeps
	maxSweepPoints int
	maxStored      int
	sweepMu        sync.Mutex
	sweeps         map[string]*sweepJob
	sweepOrder     []string // creation order, for bounded retention
	sweepSeq       int
	cooptN         int // in-flight co-optimization searches (sweepMu)
}

// ServerOption tunes server construction.
type ServerOption func(*Server)

// WithBaseContext sets the lifetime of asynchronous sweeps (the daemon
// passes its drain context so expiring the shutdown grace cancels
// background sweeps too). Defaults to context.Background().
func WithBaseContext(ctx context.Context) ServerOption {
	return func(s *Server) { s.baseCtx = ctx }
}

// WithLogf routes server event logs (handler panics, drain progress) to
// fn. Defaults to discarding them.
func WithLogf(fn func(format string, args ...any)) ServerOption {
	return func(s *Server) {
		if fn != nil {
			s.logf = fn
		}
	}
}

// WithSweepLimits bounds sweep admission: maxPoints caps the expansion
// of one sweep spec and of one co-optimization's measured sweep,
// maxStored bounds how many sweeps the status store retains (oldest
// finished evicted first). Zero keeps the defaults (1024, 64).
func WithSweepLimits(maxPoints, maxStored int) ServerOption {
	return func(s *Server) {
		if maxPoints > 0 {
			s.maxSweepPoints = maxPoints
		}
		if maxStored > 0 {
			s.maxStored = maxStored
		}
	}
}

// WithCoordinator mounts the sweep-fabric coordinator's routes
// (/v1/fabric/workers, /v1/fabric/sweeps) on the server and appends the
// coordinator's metrics to /metrics.
func WithCoordinator(c *fabric.Coordinator) ServerOption {
	return func(s *Server) { s.coord = c }
}

// NewServer wraps a kit (shared, read-only, singleflight-cached) into an
// HTTP handler.
func NewServer(kit *flow.Kit, opts ...ServerOption) *Server {
	s := &Server{
		kit:            kit,
		mux:            http.NewServeMux(),
		started:        time.Now(),
		baseCtx:        context.Background(),
		maxSweepPoints: 1024,
		maxStored:      64,
		sweeps:         map[string]*sweepJob{},
		logf:           func(string, ...any) {},
	}
	s.ready.Store(true)
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweepCreate)
	s.mux.HandleFunc("GET /v1/sweeps", s.handleSweepList)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepGet)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleSweepCancel)
	s.mux.HandleFunc("POST /v1/coopt", s.handleCoopt)
	s.mux.HandleFunc("/v1/circuits", s.handleCircuits)
	s.mux.HandleFunc("GET /v1/cache", s.handleCacheStats)
	s.mux.HandleFunc("POST /v1/cache/purge", s.handleCachePurge)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /livez", s.handleLivez)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.coord != nil {
		s.mux.HandleFunc("POST /v1/fabric/workers", s.handleFabricJoin)
		s.mux.HandleFunc("GET /v1/fabric/workers", s.handleFabricWorkers)
		s.mux.HandleFunc("POST /v1/fabric/sweeps", s.handleFabricSweep)
	}
	return s
}

// SetReady flips the /readyz answer. A daemon running as a fabric
// worker marks itself unready until its coordinator enrollment
// succeeds (and again when heartbeats start failing); a draining daemon
// marks itself unready so load balancers stop routing to it. Liveness
// (/livez, /healthz) is unaffected.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// ServeHTTP implements http.Handler, converting handler panics into a
// structured JSON 500 when the response has not started. net/http's own
// per-connection recovery would otherwise sever the connection with no
// body at all — and with nothing counted or logged server-side.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rw := &recoveryWriter{ResponseWriter: w}
	defer func() {
		if v := recover(); v != nil {
			s.panics.Add(1)
			s.logf("panic in %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
			if !rw.wrote {
				writeError(rw, http.StatusInternalServerError, "panic", fmt.Sprintf("internal error: %v", v))
			}
		}
	}()
	s.mux.ServeHTTP(rw, r)
}

// recoveryWriter tracks whether the response has started, so the panic
// path knows if a 500 can still be written. Flush forwards to the
// wrapped writer — the NDJSON sweep stream depends on it.
type recoveryWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *recoveryWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *recoveryWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

func (w *recoveryWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// apiError is the structured error body.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, map[string]apiError{"error": {Code: code, Message: msg}})
}

// maxBody bounds a request body: the largest legitimate requests
// (inline netlists, sweep specs) are far under it.
const maxBody = 4 << 20

// decodeJSON strictly decodes the request body into v: at most maxBody
// bytes and no unknown fields. On failure it answers 400 bad_json and
// reports false.
func decodeJSON(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad_json", fmt.Sprintf("decoding %s: %v", what, err))
		return false
	}
	return true
}

// openStream commits a 200 NDJSON response for a sweep stream and
// returns its line writer; callers serialize the writes. The headers
// are flushed at once, so the client (or the fabric coordinator) sees
// the stream open before the first line, and every line is flushed as
// it is written. The fabric relays these streams and its lease watchdog
// reads them line by line, so the second header tells buffering reverse
// proxies (nginx and friends) to pass lines through.
func openStream(w http.ResponseWriter) func(fabric.StreamLine) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	flush()
	enc := json.NewEncoder(w)
	return func(line fabric.StreamLine) {
		enc.Encode(line)
		flush()
	}
}

// errorStatus maps a Run error onto an HTTP status and a stable error
// code. Request-shaped failures are 400s, server-side cancellation
// (shutdown, deadline) is a 503 the client can retry, everything else
// is a 500.
func errorStatus(err error) (int, string) {
	switch {
	case errors.Is(err, pipeline.ErrStageTimeout):
		// A watchdog kill deliberately does not unwrap to
		// DeadlineExceeded, so this arm is reachable: the job hit the
		// server's per-stage bound, not the client's deadline.
		return http.StatusInternalServerError, "stage_timeout"
	case errors.Is(err, pipeline.ErrPanic):
		return http.StatusInternalServerError, "panic"
	case errors.Is(err, fault.ErrInjected):
		return http.StatusInternalServerError, "fault_injected"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, "cancelled"
	case errors.Is(err, flow.ErrUnknownCircuit):
		return http.StatusBadRequest, "unknown_circuit"
	case errors.Is(err, flow.ErrUnknownTech):
		return http.StatusBadRequest, "unknown_tech"
	case errors.Is(err, flow.ErrUnknownAnalysis):
		return http.StatusBadRequest, "unknown_analysis"
	case errors.Is(err, flow.ErrUnknownPlacement):
		return http.StatusBadRequest, "unknown_placement"
	case errors.Is(err, flow.ErrBadRequest):
		return http.StatusBadRequest, "bad_request"
	}
	return http.StatusInternalServerError, "internal"
}

// handleJobs runs one design job under the request's context: closing the
// client connection cancels the flow mid-run (completed stages stay
// cached for the next attempt).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST a flow.Request JSON body")
		return
	}
	var req flow.Request
	if !decodeJSON(w, r, "request", &req) {
		return
	}
	if err := req.Validate(); err != nil {
		status, code := errorStatus(err)
		writeError(w, status, code, err.Error())
		return
	}
	s.jobs.Add(1)
	res, err := s.kit.Run(r.Context(), req)
	if err != nil {
		// A cancelled job answers 503 (retryable): server shutdown
		// cancels in-flight contexts while clients are still connected.
		// If the cancellation came from the client disconnecting, the
		// write goes nowhere, which is fine.
		status, code := errorStatus(err)
		writeError(w, status, code, err.Error())
		return
	}
	// The whole answer is rendered before the status is committed, so a
	// result that does not encode is a 500, not a 200 with no body.
	buf := answerBufs.Get().(*[]byte)
	defer answerBufs.Put(buf)
	body, err := res.AppendIndent((*buf)[:0])
	*buf = body
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode_failed", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// answerBufs recycles the buffers job answers are rendered into.
var answerBufs = sync.Pool{New: func() any { return new([]byte) }}

// circuitInfo is one registry row of the circuit listing.
type circuitInfo struct {
	Name        string   `json:"name"`
	Description string   `json:"description"`
	Inputs      []string `json:"inputs"`
	Outputs     []string `json:"outputs"`
	Instances   int      `json:"instances"`
}

// circuitListing is the registry listing, built on the first
// GET /v1/circuits of the process: the registry is static after program
// init, and building every circuit (mult8 has 888 gates) would slow
// every daemon's start.
var circuitListing = sync.OnceValue(func() []circuitInfo {
	var rows []circuitInfo
	for _, c := range flow.Circuits() {
		info := circuitInfo{Name: c.Name, Description: c.Description}
		if nl, err := c.Build(); err == nil {
			info.Inputs = nl.Inputs
			info.Outputs = nl.Outputs
			info.Instances = len(nl.Instances)
		}
		rows = append(rows, info)
	}
	return rows
})

func (s *Server) handleCircuits(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET lists the circuit registry")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"circuits": circuitListing()})
}

// handleCacheStats serves the artifact store's per-tier counters: the
// memory LRU always, the persistent disk tier when the daemon runs with
// -store. "persistent" tells clients whether warm-start survives a
// restart.
func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	st := s.kit.CacheStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"mem":        st.Mem,
		"disk":       st.Disk,
		"persistent": st.Disk != nil,
		"entries":    s.kit.CacheLen(),
	})
}

// handleCachePurge drops every completed stage result from every store
// tier and answers with the post-purge statistics.
func (s *Server) handleCachePurge(w http.ResponseWriter, r *http.Request) {
	if err := s.kit.PurgeCache(); err != nil {
		writeError(w, http.StatusInternalServerError, "purge_failed", err.Error())
		return
	}
	st := s.kit.CacheStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"purged": true,
		"mem":    st.Mem,
		"disk":   st.Disk,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	tracked, running := s.sweepCounts()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"ready":          s.ready.Load(),
		"uptime_seconds": time.Since(s.started).Seconds(),
		"jobs_accepted":  s.jobs.Load(),
		"sweeps_tracked": tracked,
		"sweeps_running": running,
		"cache_entries":  s.kit.CacheLen(),
		"cnfet_cells":    len(s.kit.CNFET.Names()),
		"cmos_cells":     len(s.kit.CMOS.Names()),
	})
}

// handleLivez is pure liveness: the process is up and serving. Probes
// that should restart a wedged process watch this, not readiness.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.started).Seconds(),
	})
}

// handleReadyz is readiness to take traffic: 503 while the daemon is
// enrolling with a fabric coordinator or draining.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready := s.ready.Load()
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{"ready": ready})
}

// handleMetrics renders the daemon's process metrics in Prometheus text
// format, then the fabric coordinator's when one is mounted.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", promtext.ContentType)
	pw := promtext.New(w)
	tracked, running := s.sweepCounts()
	prog := s.points.Snapshot()
	ready := 0.0
	if s.ready.Load() {
		ready = 1
	}
	pw.Gauge("cnfetd_uptime_seconds", "Seconds since the daemon started.", time.Since(s.started).Seconds())
	pw.Gauge("cnfetd_ready", "1 when /readyz answers 200.", ready)
	pw.Counter("cnfetd_jobs_accepted_total", "Jobs and sweeps accepted since start.", float64(s.jobs.Load()))
	pw.Counter("cnfetd_handler_panics_total", "Handler panics converted to 500 responses.", float64(s.panics.Load()))
	pw.Gauge("cnfetd_sweeps_tracked", "Sweeps retained in the status store.", float64(tracked))
	pw.Gauge("cnfetd_sweeps_running", "Tracked sweeps currently executing.", float64(running))
	pw.Counter("cnfetd_sweep_points_total", "Sweep points this process has been asked to run.", float64(prog.Total))
	pw.Counter("cnfetd_sweep_points_done_total", "Sweep points completed (including failed ones).", float64(prog.Done))
	pw.Counter("cnfetd_sweep_points_failed_total", "Sweep points that completed with an error.", float64(prog.Failed))
	pw.Counter("cnfetd_sweep_stages_total", "Flow stages executed by completed sweep points.", float64(prog.TotalStages))
	pw.Counter("cnfetd_sweep_stages_cached_total", "Flow stages served from the artifact store.", float64(prog.CachedStages))

	st := s.kit.CacheStats()
	pw.Gauge("cnfetd_cache_entries", "Completed stage results tracked by the memo cache.", float64(s.kit.CacheLen()))
	tiers := []struct {
		name  string
		stats *pipeline.TierStats
	}{{"mem", &st.Mem}, {"disk", st.Disk}}
	var hits, misses, puts, evictions, entries, bytes []promtext.Sample
	for _, t := range tiers {
		if t.stats == nil {
			continue
		}
		label := []promtext.Label{{Name: "tier", Value: t.name}}
		hits = append(hits, promtext.Sample{Labels: label, Value: float64(t.stats.Hits)})
		misses = append(misses, promtext.Sample{Labels: label, Value: float64(t.stats.Misses)})
		puts = append(puts, promtext.Sample{Labels: label, Value: float64(t.stats.Puts)})
		evictions = append(evictions, promtext.Sample{Labels: label, Value: float64(t.stats.Evictions)})
		entries = append(entries, promtext.Sample{Labels: label, Value: float64(t.stats.Entries)})
		bytes = append(bytes, promtext.Sample{Labels: label, Value: float64(t.stats.Bytes)})
	}
	pw.Metric("counter", "cnfetd_store_hits_total", "Artifact-store hits per tier.", hits...)
	pw.Metric("counter", "cnfetd_store_misses_total", "Artifact-store misses per tier.", misses...)
	pw.Metric("counter", "cnfetd_store_puts_total", "Artifact-store writes per tier.", puts...)
	pw.Metric("counter", "cnfetd_store_evictions_total", "Artifact-store evictions per tier.", evictions...)
	pw.Metric("gauge", "cnfetd_store_entries", "Artifact-store resident entries per tier.", entries...)
	pw.Metric("gauge", "cnfetd_store_bytes", "Artifact-store resident bytes per tier.", bytes...)
	if s.coord != nil {
		s.coord.WriteMetrics(pw)
	}
}
