package pipeline

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// Stage is one node of a flow graph: a named computation with declared
// dependencies. Run receives the stage context — the run context bounded
// by the graph's per-stage watchdog (see StageTimeout), which a stage
// that can block (solvers, I/O, injected hangs) must honour so the
// watchdog can reclaim it — and the dependency results keyed by stage
// name. A stage with a non-empty Key is memoized in the graph's cache
// under that key, so repeated runs of graphs that share a cache skip the
// work entirely.
type Stage struct {
	Name string
	Deps []string
	Key  string // content key for memoization; "" disables caching
	// Codec, when set on a memoized stage, declares the result
	// serializable: the graph consults the cache's disk tier before
	// running the stage and writes the computed result through to it.
	// Stages without a codec memoize in memory only.
	Codec Codec
	Run   func(ctx context.Context, deps map[string]any) (any, error)
}

// Result is the outcome of one stage of a graph run: its report (the
// record the graph's Trace receives) plus the stage value.
type Result struct {
	StageReport
	Value any
}

// Graph is a DAG of stages executed with bounded parallelism: every stage
// starts as soon as its dependencies are done and a worker is free.
type Graph struct {
	stages       []*Stage
	byName       map[string]*Stage
	cache        *Cache
	trace        *Trace
	workers      int
	stageTimeout time.Duration
}

// NewGraph builds an empty graph. cache may be nil (no memoization across
// runs); workers <= 0 selects DefaultWorkers.
func NewGraph(cache *Cache, workers int) *Graph {
	return &Graph{byName: map[string]*Stage{}, cache: cache, workers: workers}
}

// Trace attaches a trace that receives one StageReport per executed stage.
func (g *Graph) Trace(t *Trace) *Graph { g.trace = t; return g }

// StageTimeout arms a per-stage watchdog: each stage runs under a
// context that expires d after the stage starts. A stage killed by its
// watchdog (rather than by the run's own context) fails with a
// *StageTimeoutError, which skips its dependents like any stage
// failure. 0 (the default) disables the watchdog.
func (g *Graph) StageTimeout(d time.Duration) *Graph { g.stageTimeout = d; return g }

// Add appends a stage; name must be unique and every dependency must have
// been added first (any topological construction satisfies this, and it
// makes cycles impossible by construction).
func (g *Graph) Add(s Stage) *Graph {
	if _, dup := g.byName[s.Name]; dup {
		panic(fmt.Sprintf("pipeline: duplicate stage %q", s.Name))
	}
	for _, d := range s.Deps {
		if _, ok := g.byName[d]; !ok {
			panic(fmt.Sprintf("pipeline: stage %q depends on unknown stage %q", s.Name, d))
		}
	}
	st := s
	g.stages = append(g.stages, &st)
	g.byName[st.Name] = &st
	return g
}

// RunCtx executes the graph and returns every stage's result keyed by
// name. A failed stage marks its transitive dependents as skipped (they
// never run); the returned error is from the earliest failing stage in
// insertion order, which is always a genuine failure rather than a skip.
//
// A stage whose dependencies settle after ctx is cancelled never starts
// (it fails with ctx.Err() and skips its dependents), and memoized stages
// consult the cache through DoCodecCtx so waiters do not outlive the
// context. Stages already in flight run to completion — their successful
// results stay cached, so a rerun after cancellation resumes where the
// cancelled run left off. When cancellation is the earliest failure,
// errors.Is(err, ctx.Err()) holds on the returned error.
func (g *Graph) RunCtx(ctx context.Context) (map[string]Result, error) {
	n := len(g.stages)
	results := make(map[string]Result, n)
	if n == 0 {
		return results, nil
	}

	indeg := make(map[string]int, n)
	dependents := make(map[string][]string, n)
	for _, s := range g.stages {
		indeg[s.Name] = len(s.Deps)
		for _, d := range s.Deps {
			dependents[d] = append(dependents[d], s.Name)
		}
	}

	pool := NewPool(g.workers)
	// Buffered to the stage count so finished workers never block handing
	// back a result while the scheduler itself is blocked on a full pool.
	done := make(chan Result, n)
	running := 0
	failed := map[string]bool{}

	start := func(s *Stage) {
		running++
		deps := make(map[string]any, len(s.Deps))
		for _, d := range s.Deps {
			deps[d] = results[d].Value
		}
		pool.Go(func() {
			t0 := time.Now()
			var value any
			var err error
			cached := false
			stageCtx := ctx
			cancelStage := context.CancelFunc(func() {})
			var watchdog time.Time
			if g.stageTimeout > 0 {
				watchdog = t0.Add(g.stageTimeout)
				stageCtx, cancelStage = context.WithDeadline(ctx, watchdog)
			}
			// Panic recovery lives inside the function handed to the
			// cache, so a panicking stage settles its singleflight entry
			// with an error instead of stranding every waiter.
			run := func() (any, error) {
				return recovering(s.Name, func() (any, error) { return s.Run(stageCtx, deps) })
			}
			if err = ctx.Err(); err != nil {
				// Cancelled before the worker picked the stage up: fail
				// it without running (or touching the cache).
			} else if g.cache != nil && s.Key != "" {
				value, cached, err = g.cache.DoCodecCtx(stageCtx, s.Key, s.Codec, run)
			} else {
				value, err = run()
			}
			cancelStage()
			if err != nil && g.stageTimeout > 0 && !time.Now().Before(watchdog) && ctx.Err() == nil {
				// The stage failed past its watchdog while the run itself
				// was still live: report it as a typed stage failure, not
				// as the caller's deadline. The clock decides, not
				// stageCtx.Err(): a stage that reads its deadline itself
				// (the solver does) stops before the watchdog's timer
				// fires, and cancelStage then makes stageCtx.Err() read
				// Canceled.
				err = &StageTimeoutError{Stage: s.Name, Timeout: g.stageTimeout, Cause: err}
			}
			r := Result{StageReport: StageReport{Stage: s.Name, Dur: time.Since(t0), Cached: cached, Err: err}, Value: value}
			g.trace.Add(r.StageReport)
			done <- r
		})
	}

	// resolve marks `name` settled and starts (or skips) any dependent
	// whose dependencies are now all settled.
	var resolve func(name string)
	resolve = func(name string) {
		for _, depName := range dependents[name] {
			indeg[depName]--
			if indeg[depName] != 0 {
				continue
			}
			s := g.byName[depName]
			blocked := ""
			for _, d := range s.Deps {
				if failed[d] {
					blocked = d
					break
				}
			}
			if blocked == "" {
				start(s)
				continue
			}
			failed[depName] = true
			results[depName] = Result{StageReport: StageReport{
				Stage: depName,
				Err:   fmt.Errorf("skipped: dependency %q failed", blocked),
			}}
			resolve(depName)
		}
	}

	for _, s := range g.stages {
		if indeg[s.Name] == 0 {
			start(s)
		}
	}
	for running > 0 {
		r := <-done
		running--
		results[r.Stage] = r
		if r.Err != nil {
			failed[r.Stage] = true
		}
		resolve(r.Stage)
	}
	pool.Wait()

	var errNames []string
	for name, r := range results {
		if r.Err != nil {
			errNames = append(errNames, name)
		}
	}
	if len(errNames) > 0 {
		sort.Slice(errNames, func(i, j int) bool {
			return g.order(errNames[i]) < g.order(errNames[j])
		})
		first := errNames[0]
		return results, fmt.Errorf("pipeline: stage %q: %w", first, results[first].Err)
	}
	return results, nil
}

// order returns the insertion index of a stage name.
func (g *Graph) order(name string) int {
	for i, s := range g.stages {
		if s.Name == name {
			return i
		}
	}
	return len(g.stages)
}
