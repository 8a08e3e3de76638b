package sweep

import (
	"context"
	"errors"
	"sync"
	"time"

	"cnfetdk/internal/fault"
	"cnfetdk/internal/flow"
	"cnfetdk/internal/pipeline"
)

// Options tunes one sweep run.
type Options struct {
	// OnPoint, when set, receives every point result as it completes
	// (completion order, not index order). It is the run's one point
	// observer: the daemon streams these as NDJSON and counts them into
	// its progress counters. Calls are serialized; the callback needs no
	// locking.
	OnPoint func(PointResult)
}

// Option is a functional sweep-run option.
type Option func(*Options)

// OnPoint streams completed points to fn (serialized calls, completion
// order).
func OnPoint(fn func(PointResult)) Option { return func(o *Options) { o.OnPoint = fn } }

// Run expands spec into concrete requests and executes them through kit,
// at most kit.Workers() points at a time (each point's stage graph fans
// out on the same bound; a kit built with one worker runs the points in
// index order). Run does not cap the expansion: a surface that takes the
// spec from outside admits it first (Spec.Admit). All points share
// the kit's singleflight memo cache, so points with a common prefix
// (same circuit and placement, different Monte Carlo parameters, say)
// compute the shared stages once; the report's Trace counts the stage
// cache hits this sharing produced.
//
// A point that fails with a request-shaped error is recorded in its
// PointResult and the sweep continues; ctx cancellation aborts the whole
// sweep with the context error. In-flight points run to completion and
// their stage results stay cached, so rerunning the same spec resumes
// from the cached points rather than restarting.
func Run(ctx context.Context, kit *flow.Kit, spec Spec, opts ...Option) (*Report, error) {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	points, err := spec.Expand()
	if err != nil {
		return nil, err
	}

	var mu sync.Mutex // serializes OnPoint
	t0 := time.Now()
	entriesBefore := kit.CacheLen()
	results, err := pipeline.MapCtx(ctx, kit.Workers(), points, func(i int, pt Point) (PointResult, error) {
		p0 := time.Now()
		pr := PointResult{Index: pt.Index, ID: pt.ID, Params: pt.Params}
		res, rerr := kit.Run(ctx, pt.Request)
		switch {
		case rerr == nil:
			for _, st := range res.Stages {
				pr.TotalStages++
				if st.Cached {
					pr.CachedStages++
				}
			}
			// Per-stage wall times and cache flags are execution trace,
			// not sweep outcome; the counts above keep the sharing
			// evidence without breaking report determinism.
			res.Stages = nil
			pr.Result = res
		case errors.Is(rerr, context.Canceled) || errors.Is(rerr, context.DeadlineExceeded):
			// Abort the sweep: completed points stay cached for a rerun.
			return pr, rerr
		case errors.Is(rerr, fault.ErrInjected) || errors.Is(rerr, pipeline.ErrPanic) || errors.Is(rerr, pipeline.ErrStageTimeout):
			// Infrastructure failure (injected fault, stage panic,
			// watchdog kill), not a property of the point: fail the run
			// loudly so the fabric retries the shard elsewhere instead of
			// folding a transient machine problem into report data.
			return pr, rerr
		default:
			pr.Error = rerr.Error()
		}
		pr.Millis = float64(time.Since(p0).Microseconds()) / 1000
		if o.OnPoint != nil {
			mu.Lock()
			o.OnPoint(pr)
			mu.Unlock()
		}
		return pr, nil
	})
	if err != nil {
		return nil, err
	}

	rep := buildReport(spec, results)
	trace := &RunTrace{
		WallMillis:         float64(time.Since(t0).Microseconds()) / 1000,
		CacheEntriesBefore: entriesBefore,
		CacheEntriesAfter:  kit.CacheLen(),
	}
	for _, pr := range results {
		trace.CacheHitStages += pr.CachedStages
		trace.TotalStages += pr.TotalStages
	}
	rep.Trace = trace
	return rep, nil
}
