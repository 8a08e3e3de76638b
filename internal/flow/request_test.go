package flow

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"testing"
)

// FuzzRequestNormalize decodes bytes the way /v1/jobs does (strict
// encoding/json, unknown fields refused) and admits the request: inline
// netlists reach synth.Parse and inline expressions logic.Parse. The
// contract is no panic, and either an error wrapping a flow sentinel or
// a resolved request every stage can run: known techs and analyses, a
// builder, and a pulsed stimulus wherever a delay or energy stage will
// read one. Tier-1 runs the committed seeds in testdata/fuzz.
func FuzzRequestNormalize(f *testing.F) {
	sentinels := []error{ErrBadRequest, ErrUnknownCircuit, ErrUnknownTech, ErrUnknownAnalysis, ErrUnknownPlacement}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		rq, err := req.normalize()
		if err != nil {
			if !slices.ContainsFunc(sentinels, func(s error) bool { return errors.Is(err, s) }) {
				t.Fatalf("error wraps no flow sentinel: %v", err)
			}
			return
		}
		if len(rq.techs) == 0 || len(rq.analyses) == 0 || rq.build == nil {
			t.Fatalf("resolved request lacks techs, analyses or a builder: %+v", rq)
		}
		if (slices.Contains(rq.analyses, AnalysisDelay) || slices.Contains(rq.analyses, AnalysisEnergy)) && rq.stim.Pulse == "" {
			t.Fatalf("delay/energy admitted without a pulse: %+v", rq.stim)
		}
	})
}
