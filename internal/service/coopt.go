package service

import (
	"net/http"

	"cnfetdk/internal/coopt"
)

// handleCoopt runs one processing/circuit co-optimization search under
// the request's context. The measured sweep executes on the daemon's
// shared kit (so repeated searches reuse cached stages) within the
// daemon's point limit, and the response is the front's canonical JSON —
// byte-identical to a local coopt.Search of the same spec, whatever the
// daemon's worker count.
func (s *Server) handleCoopt(w http.ResponseWriter, r *http.Request) {
	var spec coopt.Spec
	if !decodeJSON(w, r, "spec", &spec) {
		return
	}
	if err := spec.Admit(s.maxSweepPoints); err != nil {
		writeAdmitError(w, err)
		return
	}
	s.jobs.Add(1)
	s.cooptEnter()
	defer s.cooptExit()
	front, err := coopt.Search(r.Context(), coopt.KitRunner{Kit: s.kit}, spec)
	if err != nil {
		status, code := errorStatus(err)
		writeError(w, status, code, err.Error())
		return
	}
	blob, err := front.CanonicalJSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(append(blob, '\n'))
}
