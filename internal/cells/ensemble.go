package cells

import (
	"context"
	"fmt"
	"math"

	"cnfetdk/internal/device"
	"cnfetdk/internal/pipeline"
	"cnfetdk/internal/spice"
)

// EnsembleStats summarizes one measured distribution of a variation
// ensemble.
type EnsembleStats struct {
	Samples int     `json:"samples"`
	MeanS   float64 `json:"mean_s"`
	SigmaS  float64 `json:"sigma_s"`
	MinS    float64 `json:"min_s"`
	MaxS    float64 `json:"max_s"`
}

// Ensemble is a reusable variation Monte Carlo over one testbench —
// a cell arc or a whole design. Each sample lane holds a Clone of the
// prototype (same topology, own FETs), and all lanes share one
// plan-sharing spice.Batch. Run redraws the per-device variations in
// place and re-simulates every lane, reusing every piece of storage, so
// a warmed re-Run allocates only the worker pool's constant
// bookkeeping — nothing per lane or per step — which is what lets
// sweeps and the co-optimizer afford ensembles per point.
//
// An Ensemble is not safe for concurrent use; Run itself fans its
// lanes out over a worker pool.
type Ensemble struct {
	v      device.Variations
	proto  *spice.Circuit
	lanes  []*spice.Circuit
	batch  *spice.Batch
	values []float64 // per-lane measurements of the most recent Run
}

// NewEnsemble prepares a variation ensemble of samples lanes over the
// prototype testbench. The prototype must not change afterwards: every
// Run restores each lane's FETs from it before drawing.
func NewEnsemble(proto *spice.Circuit, v device.Variations, samples int) (*Ensemble, error) {
	if samples <= 0 {
		return nil, fmt.Errorf("cells: ensemble needs samples > 0")
	}
	if err := v.Validate(); err != nil {
		return nil, fmt.Errorf("cells: ensemble: %w", err)
	}
	b, err := spice.NewBatch(samples, proto)
	if err != nil {
		return nil, fmt.Errorf("cells: ensemble plan: %w", err)
	}
	e := &Ensemble{v: v, proto: proto, batch: b,
		lanes:  make([]*spice.Circuit, samples),
		values: make([]float64, samples),
	}
	for i := range e.lanes {
		e.lanes[i] = proto.Clone()
	}
	return e, nil
}

// Run redraws every lane's device variations from the seed, simulates
// each lane's transient (steps fixed steps to tstop, recording probes)
// and stores measure's value of the result. Lanes fan out over workers
// goroutines (<= 0 selects one per CPU); measure runs concurrently on
// different lanes' results. Lane i's draws come from
// Variations.Sampler(seed, i) applied to the FETs in instantiation
// order, so the result is a pure function of (ensemble, seed) at any
// worker count. A cancelled ctx stops every lane's transient.
func (e *Ensemble) Run(ctx context.Context, workers int, seed int64, tstop float64, steps int, probes spice.Probes, measure func(*spice.Result) (float64, error)) error {
	_, err := pipeline.MapCtx(ctx, workers, e.lanes, func(i int, ckt *spice.Circuit) (struct{}, error) {
		ckt.RestoreFETs(e.proto)
		s := e.v.Sampler(seed, i)
		for j := range ckt.FETs {
			d := s.Draw(ckt.FETs[j].P.Tubes)
			d.Apply(&ckt.FETs[j].P)
		}
		res, err := ckt.Transient(ctx, e.batch.Lane(i), tstop, steps, probes)
		if err != nil {
			return struct{}{}, fmt.Errorf("cells: ensemble lane %d: %w", i, err)
		}
		if e.values[i], err = measure(res); err != nil {
			return struct{}{}, fmt.Errorf("cells: ensemble lane %d measure: %w", i, err)
		}
		return struct{}{}, nil
	})
	return err
}

// Stats summarizes the most recent Run's distribution.
func (e *Ensemble) Stats() EnsembleStats { return summarize(e.values) }

func summarize(xs []float64) EnsembleStats {
	st := EnsembleStats{Samples: len(xs)}
	if len(xs) == 0 {
		return st
	}
	st.MinS, st.MaxS = xs[0], xs[0]
	sum := 0.0
	for _, x := range xs {
		sum += x
		st.MinS = math.Min(st.MinS, x)
		st.MaxS = math.Max(st.MaxS, x)
	}
	st.MeanS = sum / float64(len(xs))
	ss := 0.0
	for _, x := range xs {
		ss += (x - st.MeanS) * (x - st.MeanS)
	}
	st.SigmaS = math.Sqrt(ss / float64(len(xs)))
	return st
}
