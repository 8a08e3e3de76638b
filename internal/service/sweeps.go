package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"cnfetdk/internal/fabric"
	"cnfetdk/internal/sweep"
)

// Sweep job states.
const (
	sweepRunning   = "running"
	sweepDone      = "done"
	sweepFailed    = "failed"
	sweepCancelled = "cancelled"
)

// sweepJob tracks one batch through the store. Mutable fields are
// guarded by the server's sweepMu; done closes when the run settles.
type sweepJob struct {
	id       string
	spec     sweep.Spec
	points   int
	created  time.Time
	streamed bool // ran under its request's context, result went to the stream
	progress Progress
	cancel   context.CancelFunc
	done     chan struct{}

	// guarded by Server.sweepMu
	state  string
	report *sweep.Report
	errMsg string
}

// sweepStatus is the polling view of one job. The full report rides
// along once the sweep settles.
type sweepStatus struct {
	ID       string           `json:"id"`
	State    string           `json:"state"`
	Name     string           `json:"name,omitempty"`
	Points   int              `json:"points"`
	Created  time.Time        `json:"created"`
	Streamed bool             `json:"streamed,omitempty"`
	Progress ProgressSnapshot `json:"progress"`
	Error    string           `json:"error,omitempty"`
	Report   *sweep.Report    `json:"report,omitempty"`
}

// status renders a job under sweepMu.
func (s *Server) status(j *sweepJob, withReport bool) sweepStatus {
	st := sweepStatus{
		ID:       j.id,
		State:    j.state,
		Name:     j.spec.Name,
		Points:   j.points,
		Created:  j.created,
		Streamed: j.streamed,
		Progress: j.progress.Snapshot(),
		Error:    j.errMsg,
	}
	if withReport {
		st.Report = j.report
	}
	return st
}

// Drain blocks until every running sweep (async and streamed alike) and
// every in-flight co-optimization search settles, or ctx expires; it
// reports whether the server fully drained. The daemon calls it between
// HTTP Shutdown and cancelling the job context, so detached sweeps get
// the same grace window as in-flight requests: streamed work is
// nominally covered by http.Server.Shutdown too, but Drain also covers
// it for embedders that bypass Shutdown, and is the one signal that
// includes coopt runs.
func (s *Server) Drain(ctx context.Context) bool {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		var done chan struct{}
		s.sweepMu.Lock()
		busy := s.cooptN > 0
		for _, j := range s.sweeps {
			if j.state == sweepRunning {
				done = j.done
				break
			}
		}
		s.sweepMu.Unlock()
		if done == nil && !busy {
			return true
		}
		// A nil done (only coopt busy) never fires: the tick re-polls,
		// and a sweep admitted meanwhile is found next round.
		select {
		case <-done:
		case <-tick.C:
		case <-ctx.Done():
			return false
		}
	}
}

// cooptEnter/cooptExit bracket one co-optimization search for Drain.
func (s *Server) cooptEnter() {
	s.sweepMu.Lock()
	s.cooptN++
	s.sweepMu.Unlock()
}

func (s *Server) cooptExit() {
	s.sweepMu.Lock()
	s.cooptN--
	s.sweepMu.Unlock()
}

// sweepCounts reports (tracked, running) for healthz.
func (s *Server) sweepCounts() (int, int) {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	running := 0
	for _, j := range s.sweeps {
		if j.state == sweepRunning {
			running++
		}
	}
	return len(s.sweeps), running
}

// admitSweep decodes a spec and admits it within the server's point
// limit (sweep.Spec.Admit). It returns the expansion size.
func (s *Server) admitSweep(w http.ResponseWriter, r *http.Request) (sweep.Spec, int, bool) {
	var spec sweep.Spec
	if !decodeJSON(w, r, "spec", &spec) {
		return spec, 0, false
	}
	n, err := spec.Admit(s.maxSweepPoints)
	if err != nil {
		writeAdmitError(w, err)
		return spec, 0, false
	}
	return spec, n, true
}

// writeAdmitError answers a spec that failed admission on any spec route
// with a 400: too_many_points over the route's limit, a flow sentinel's
// own code (unknown_circuit, ...), bad_spec for anything else.
func writeAdmitError(w http.ResponseWriter, err error) {
	code := "bad_spec"
	if errors.Is(err, sweep.ErrTooManyPoints) {
		code = "too_many_points"
	} else if status, c := errorStatus(err); status == http.StatusBadRequest {
		code = c
	}
	writeError(w, http.StatusBadRequest, code, err.Error())
}

// handleSweepCreate starts a batch. Default mode is asynchronous: the
// job runs detached under the server's base context and the client polls
// GET /v1/sweeps/{id}. With ?stream=ndjson the sweep runs under the
// request's own context and completed points stream back as NDJSON lines
// ({"point": ...} per completion, then one {"done": true, "report": ...}).
func (s *Server) handleSweepCreate(w http.ResponseWriter, r *http.Request) {
	spec, n, ok := s.admitSweep(w, r)
	if !ok {
		return
	}
	s.jobs.Add(1)
	if stream := r.URL.Query().Get("stream"); stream == "ndjson" || stream == "1" || stream == "true" {
		s.streamSweep(w, r, spec, n)
		return
	}

	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &sweepJob{
		spec:    spec,
		points:  n,
		created: time.Now(),
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   sweepRunning,
	}
	s.registerSweep(j)

	go func() {
		defer cancel()
		rep, err := sweep.Run(ctx, s.kit, spec, sweep.OnPoint(func(pr sweep.PointResult) { s.countPoint(j, pr) }))
		s.settleSweep(j, rep, err)
	}()

	w.Header().Set("Location", "/v1/sweeps/"+j.id)
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":     j.id,
		"state":  sweepRunning,
		"points": n,
		"url":    "/v1/sweeps/" + j.id,
	})
}

// registerSweep assigns an id, admits the job to the bounded status
// store and adds its admitted point count to the job's and the server's
// progress totals.
func (s *Server) registerSweep(j *sweepJob) {
	j.progress.AddTotal(j.points)
	s.points.AddTotal(j.points)
	s.sweepMu.Lock()
	s.sweepSeq++
	j.id = fmt.Sprintf("sw-%d", s.sweepSeq)
	s.sweeps[j.id] = j
	s.sweepOrder = append(s.sweepOrder, j.id)
	s.evictSweepsLocked()
	s.sweepMu.Unlock()
}

// countPoint counts one completed point into the job's and the server's
// progress. Every sweep's OnPoint observer calls it.
func (s *Server) countPoint(j *sweepJob, pr sweep.PointResult) {
	failed := pr.Error != ""
	j.progress.ItemDone(failed, pr.CachedStages, pr.TotalStages)
	s.points.ItemDone(failed, pr.CachedStages, pr.TotalStages)
}

// settleSweep records the run outcome and closes the job's done channel.
func (s *Server) settleSweep(j *sweepJob, rep *sweep.Report, err error) {
	s.sweepMu.Lock()
	switch {
	case err == nil:
		j.state = sweepDone
		// A streamed sweep already delivered its report on the wire;
		// retaining a second copy in the status store would only pin
		// memory for a client that has what it asked for.
		if !j.streamed {
			j.report = rep
		}
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		j.state, j.errMsg = sweepCancelled, err.Error()
	default:
		j.state, j.errMsg = sweepFailed, err.Error()
	}
	s.sweepMu.Unlock()
	close(j.done)
}

// streamSweep runs the sweep synchronously under the request context
// (client disconnect cancels it) and streams completions as NDJSON
// (openStream): a point line per completion, then one done line.
//
// The run is tracked in the sweep status store like an async job: it
// shows up in GET /v1/sweeps, DELETE /v1/sweeps/{id} cancels it
// server-side, a client disconnect settles it as cancelled (freeing its
// retention slot), and the daemon's drain path waits on it.
func (s *Server) streamSweep(w http.ResponseWriter, r *http.Request, spec sweep.Spec, n int) {
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	j := &sweepJob{
		spec:     spec,
		points:   n,
		created:  time.Now(),
		streamed: true,
		cancel:   cancel,
		done:     make(chan struct{}),
		state:    sweepRunning,
	}
	s.registerSweep(j)

	write := openStream(w)
	rep, err := sweep.Run(ctx, s.kit, spec, sweep.OnPoint(func(pr sweep.PointResult) {
		// OnPoint calls are serialized by the engine, so the stream
		// never sees concurrent writes.
		s.countPoint(j, pr)
		write(fabric.StreamLine{Point: &pr})
	}))
	s.settleSweep(j, rep, err)
	last := fabric.StreamLine{Done: true, Report: rep}
	if err != nil {
		last.Error = err.Error()
	}
	write(last)
}

// evictSweepsLocked enforces the retention bound: oldest finished sweeps
// leave first; running sweeps are never evicted.
func (s *Server) evictSweepsLocked() {
	for len(s.sweeps) > s.maxStored {
		evicted := false
		for i, id := range s.sweepOrder {
			j, ok := s.sweeps[id]
			if !ok {
				s.sweepOrder = append(s.sweepOrder[:i], s.sweepOrder[i+1:]...)
				evicted = true
				break
			}
			if j.state != sweepRunning {
				delete(s.sweeps, id)
				s.sweepOrder = append(s.sweepOrder[:i], s.sweepOrder[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // every tracked sweep is still running
		}
	}
}

func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	out := make([]sweepStatus, 0, len(s.sweepOrder))
	for _, id := range s.sweepOrder {
		if j, ok := s.sweeps[id]; ok {
			out = append(out, s.status(j, false))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": out})
}

func (s *Server) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.sweepMu.Lock()
	j, ok := s.sweeps[id]
	if !ok {
		s.sweepMu.Unlock()
		writeError(w, http.StatusNotFound, "unknown_sweep", fmt.Sprintf("no sweep %q", id))
		return
	}
	st := s.status(j, true)
	s.sweepMu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.sweepMu.Lock()
	j, ok := s.sweeps[id]
	s.sweepMu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_sweep", fmt.Sprintf("no sweep %q", id))
		return
	}
	j.cancel()
	// Wait for the runner to settle so the response reflects the final
	// state (in-flight points run to completion; that is bounded work).
	<-j.done
	s.sweepMu.Lock()
	st := s.status(j, false)
	s.sweepMu.Unlock()
	writeJSON(w, http.StatusOK, st)
}
