package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sort"
	"time"

	"cnfetdk/internal/promtext"
	"cnfetdk/internal/sweep"
)

// Server is the coordinator's HTTP surface; cnfetd -coordinator mounts
// it under /v1/fabric/ next to the design-service routes, which also
// carry the daemon's probes and its /metrics (Coordinator.WriteMetrics
// appends the fabric metrics there).
//
//	POST /v1/fabric/workers — worker enrollment / heartbeat (JoinRequest)
//	GET  /v1/fabric/workers — registry listing
//	POST /v1/fabric/sweeps  — run a sweep.Spec across the fleet,
//	                          streaming NDJSON progress (point lines,
//	                          lease events, then the merged report)
type Server struct {
	c   *Coordinator
	mux *http.ServeMux
}

// NewServer wraps a coordinator into an HTTP handler.
func NewServer(c *Coordinator) *Server {
	s := &Server{c: c, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/fabric/workers", s.handleJoin)
	s.mux.HandleFunc("GET /v1/fabric/workers", s.handleWorkers)
	s.mux.HandleFunc("POST /v1/fabric/sweeps", s.handleSweep)
	return s
}

// ServeHTTP implements http.Handler, converting handler panics into a
// JSON 500 (when the response is still unwritten) instead of the bare
// severed connection net/http's own recovery leaves behind.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rw := &recoveryWriter{ResponseWriter: w}
	defer func() {
		if v := recover(); v != nil {
			s.c.opts.Logf("panic in %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
			if !rw.wrote {
				s.writeError(rw, http.StatusInternalServerError, "internal", fmt.Sprintf("internal error: %v", v))
			}
		}
	}()
	s.mux.ServeHTTP(rw, r)
}

// recoveryWriter tracks whether the response has started, so the panic
// path knows if a 500 can still be written. Flush forwards to the
// wrapped writer (the sweep stream depends on it).
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

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	s.writeJSON(w, status, map[string]map[string]string{
		"error": {"code": code, "message": msg},
	})
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, 64<<10)
	var jr JoinRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jr); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_json", fmt.Sprintf("decoding join: %v", err))
		return
	}
	resp, err := s.c.Join(jr.URL, false)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_worker_url", err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"workers": s.c.Workers()})
}

// handleSweep runs one fabric sweep under the request's context (client
// disconnect cancels every in-flight lease) and streams NDJSON: point
// lines and lease events as they happen, then one final line with the
// merged report. Each line is flushed immediately; X-Accel-Buffering
// tells buffering reverse proxies to pass lines through.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, 4<<20)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var spec sweep.Spec
	if err := dec.Decode(&spec); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_json", fmt.Sprintf("decoding spec: %v", err))
		return
	}
	// Admission errors (bad spec, over quota) should arrive as real HTTP
	// errors, not a 200 stream that immediately fails — so validate
	// before committing to the streaming response.
	if spec.Window == nil {
		if n, err := spec.NumPoints(); err != nil {
			s.writeError(w, http.StatusBadRequest, "bad_spec", err.Error())
			return
		} else if n > s.c.opts.MaxSweepPoints {
			s.writeError(w, http.StatusBadRequest, "too_many_points",
				fmt.Sprintf("spec expands to %d points, over this coordinator's %d-point quota", n, s.c.opts.MaxSweepPoints))
			return
		}
		if err := spec.Validate(); err != nil {
			s.writeError(w, http.StatusBadRequest, "bad_spec", err.Error())
			return
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(line StreamLine) {
		// RunSweep serializes these callbacks; no extra locking needed.
		enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}
	rep, err := s.c.RunSweep(r.Context(), spec, RunOptions{
		OnPoint: func(worker string, pr sweep.PointResult) {
			emit(StreamLine{Point: &pr, Worker: worker})
		},
		OnLease: func(ev LeaseEvent) {
			emit(StreamLine{Lease: &ev})
		},
	})
	last := StreamLine{Done: true, Report: rep}
	if err != nil {
		last.Error = err.Error()
		// A fatal sweep still salvages delivered points: the final line
		// carries the Partial-flagged report next to the error.
		var se *SweepError
		if errors.As(err, &se) && se.Partial != nil {
			last.Report = se.Partial
		}
	}
	emit(last)
}

// WriteMetrics renders the coordinator's metrics in Prometheus text
// format (cnfetd -coordinator appends them to the worker-role metrics).
func (c *Coordinator) WriteMetrics(pw *promtext.Writer) {
	pw.Counter("cnfet_fabric_sweeps_started_total", "Fabric sweeps accepted by this coordinator.", float64(c.sweepsStarted.Load()))
	pw.Counter("cnfet_fabric_sweeps_done_total", "Fabric sweeps merged successfully.", float64(c.sweepsDone.Load()))
	pw.Counter("cnfet_fabric_sweeps_failed_total", "Fabric sweeps that failed or were cancelled.", float64(c.sweepsFailed.Load()))
	pw.Counter("cnfet_fabric_points_done_total", "Sweep points completed successfully across all sweeps.", float64(c.pointsDone.Load()))
	pw.Counter("cnfet_fabric_points_failed_total", "Sweep points that completed with a point-level error.", float64(c.pointsFailed.Load()))
	pw.Counter("cnfet_fabric_points_duplicate_total", "Duplicate point deliveries dropped by first-write-wins merging.", float64(c.pointsDuplicate.Load()))
	pw.Counter("cnfet_fabric_leases_dispatched_total", "Lease dispatches, including retries.", float64(c.leasesDispatched.Load()))
	pw.Counter("cnfet_fabric_lease_retries_total", "Leases requeued after a dispatch failure.", float64(c.leaseRetries.Load()))
	pw.Counter("cnfet_fabric_breaker_trips_total", "Worker circuit-breaker openings across the fleet.", float64(c.breakerTrips.Load()))

	now := time.Now()
	c.mu.Lock()
	liveN, breakerOpen := 0, 0
	var workerRows, healthRows []promtext.Sample
	for _, w := range c.workers {
		if c.aliveLocked(w, now) {
			liveN++
		}
		if now.Before(w.openUntil) {
			breakerOpen++
		}
		workerRows = append(workerRows, promtext.Sample{
			Labels: []promtext.Label{{Name: "worker", Value: w.url}},
			Value:  float64(w.points.Load()),
		})
		healthRows = append(healthRows, promtext.Sample{
			Labels: []promtext.Label{{Name: "worker", Value: w.url}},
			Value:  w.health,
		})
	}
	runs := len(c.runs)
	queue, activeLeases := 0, 0
	oldest := 0.0
	for _, r := range c.runs {
		queue += len(r.pending)
		r.mu.Lock()
		activeLeases += len(r.active)
		for _, d := range r.active {
			if age := now.Sub(d.at).Seconds(); age > oldest {
				oldest = age
			}
		}
		r.mu.Unlock()
	}
	registered := len(c.workers)
	c.mu.Unlock()

	sort.Slice(workerRows, func(i, j int) bool { return workerRows[i].Labels[0].Value < workerRows[j].Labels[0].Value })
	sort.Slice(healthRows, func(i, j int) bool { return healthRows[i].Labels[0].Value < healthRows[j].Labels[0].Value })
	pw.Gauge("cnfet_fabric_workers_registered", "Workers in the registry, live or not.", float64(registered))
	pw.Gauge("cnfet_fabric_workers_live", "Workers currently eligible for leases.", float64(liveN))
	pw.Gauge("cnfet_fabric_workers_breaker_open", "Workers currently held out of rotation by their circuit breaker.", float64(breakerOpen))
	pw.Gauge("cnfet_fabric_sweeps_running", "Fabric sweeps currently executing.", float64(runs))
	pw.Gauge("cnfet_fabric_queue_depth", "Leases waiting for a worker across running sweeps.", float64(queue))
	pw.Gauge("cnfet_fabric_leases_active", "Leases currently dispatched to a worker.", float64(activeLeases))
	pw.Gauge("cnfet_fabric_lease_age_seconds_max", "Age of the oldest in-flight lease.", oldest)
	pw.Metric("counter", "cnfet_fabric_worker_points_total", "Points delivered per worker (throughput numerator).", workerRows...)
	pw.Metric("gauge", "cnfet_fabric_worker_health", "EWMA lease success score per worker (1 = healthy).", healthRows...)
}
