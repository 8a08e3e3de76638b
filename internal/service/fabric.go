package service

import (
	"errors"
	"net/http"

	"cnfetdk/internal/fabric"
	"cnfetdk/internal/sweep"
)

// handleFabricJoin enrolls or heartbeats a worker (cnfetd -join posts
// here on its heartbeat loop).
func (s *Server) handleFabricJoin(w http.ResponseWriter, r *http.Request) {
	var jr fabric.JoinRequest
	if !decodeJSON(w, r, "join", &jr) {
		return
	}
	ack, err := s.coord.Join(jr.URL, false)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_worker_url", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ack)
}

func (s *Server) handleFabricWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"workers": s.coord.Workers()})
}

// handleFabricSweep runs one fabric sweep under the request's context
// (client disconnect cancels every in-flight lease) and streams point
// lines and lease events as they happen, then one final line with the
// merged report. Admission errors are real HTTP errors, checked before
// the stream opens.
func (s *Server) handleFabricSweep(w http.ResponseWriter, r *http.Request) {
	var spec sweep.Spec
	if !decodeJSON(w, r, "spec", &spec) {
		return
	}
	if _, err := s.coord.Admit(spec); err != nil {
		writeAdmitError(w, err)
		return
	}
	write := openStream(w)
	rep, err := s.coord.RunSweep(r.Context(), spec, fabric.RunOptions{
		// RunSweep serializes both callbacks.
		OnPoint: func(worker string, pr sweep.PointResult) {
			write(fabric.StreamLine{Point: &pr, Worker: worker})
		},
		OnLease: func(ev fabric.LeaseEvent) {
			write(fabric.StreamLine{Lease: &ev})
		},
	})
	last := fabric.StreamLine{Done: true, Report: rep}
	if err != nil {
		last.Error = err.Error()
		// A fatal sweep still salvages delivered points: the final line
		// carries the Partial-flagged report next to the error.
		var se *fabric.SweepError
		if errors.As(err, &se) && se.Partial != nil {
			last.Report = se.Partial
		}
	}
	write(last)
}
