// Package pipeline is the staged execution engine behind the design kit's
// flow: a bounded worker pool, a content-keyed memo cache, deterministic
// parallel maps, and a small stage-graph runner with structured per-stage
// timing and error reporting.
//
// The kit's expensive steps — cell generation, SPICE characterization,
// Monte Carlo immunity checking, the logic-to-GDSII flow itself — are all
// embarrassingly parallel at some granularity, but their results must stay
// deterministic: a library built with 8 workers must equal a library built
// with 1, and a fixed-seed Monte Carlo report must be byte-identical at
// any worker count. The engine therefore separates *scheduling* (which
// goroutine computes an item) from *ordering* (results are always
// assembled in input-index order), and callers that need seeded
// randomness pre-draw their random inputs before fanning out.
//
// See DESIGN.md ("Staged pipeline engine") for the architecture.
package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultWorkers is the pool width used when a caller passes workers <= 0:
// one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// clampWorkers normalizes a worker-count request against the item count.
func clampWorkers(workers, items int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > items {
		workers = items
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Pool is a bounded worker pool: Go schedules a task, Wait drains them.
// The zero value is not usable; construct with NewPool.
type Pool struct {
	sem chan struct{}
	wg  sync.WaitGroup
}

// NewPool builds a pool running at most workers tasks concurrently
// (workers <= 0 selects DefaultWorkers).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Go schedules fn, blocking while the pool is saturated.
func (p *Pool) Go(fn func()) {
	p.sem <- struct{}{}
	p.wg.Add(1)
	go func() {
		defer func() {
			<-p.sem
			p.wg.Done()
		}()
		fn()
	}()
}

// Wait blocks until every scheduled task has finished.
func (p *Pool) Wait() { p.wg.Wait() }

// MapCtx runs fn over items on up to workers goroutines and returns the
// outputs in input order. The first error (by input index, not by wall
// clock) aborts the result; remaining in-flight items still run to
// completion, so fn must not assume early cancellation. Once ctx is
// cancelled no further items are dispatched and undispatched items
// report ctx.Err() — for a cancelled run with no earlier genuine failure
// that is the reported error, so errors.Is(err, context.Canceled) holds.
func MapCtx[I, O any](ctx context.Context, workers int, items []I, fn func(i int, item I) (O, error)) ([]O, error) {
	out := make([]O, len(items))
	errs := make([]error, len(items))
	if len(items) == 0 {
		return out, nil
	}
	workers = clampWorkers(workers, len(items))
	// A panicking item converts to a typed *PanicError instead of
	// killing the worker goroutine: the map fails, the process (a
	// daemon serving other requests) survives.
	runItem := func(i int) (any, error) {
		return recovering("", func() (any, error) { return fn(i, items[i]) })
	}
	if workers == 1 {
		// Run inline: same code path semantics, no goroutine overhead,
		// and errors still reported by lowest index.
		for i := range items {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			var v any
			if v, errs[i] = runItem(i); errs[i] == nil && v != nil {
				out[i] = v.(O)
			}
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range next {
					var v any
					if v, errs[i] = runItem(i); errs[i] == nil && v != nil {
						out[i] = v.(O)
					}
				}
			}()
		}
		for i := range items {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			next <- i
		}
		close(next)
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			if err == ctx.Err() {
				return nil, err
			}
			return nil, fmt.Errorf("pipeline: item %d: %w", i, err)
		}
	}
	return out, nil
}

// Key renders parts into a stable content key. Values are formatted with
// %#v, which covers the kit's inputs (strings, numbers, rule structs) and
// keeps keys readable when debugging cache behaviour; the final key is a
// short hash so arbitrary-size inputs stay cheap to store and compare.
func Key(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%T=%#v\x00", p, p)
	}
	return hex.EncodeToString(h.Sum(nil))[:24]
}

// cacheEntry is one in-flight computation; done guards value/err.
type cacheEntry struct {
	done  chan struct{}
	value any
	err   error
}

// Cache is a content-keyed memo cache with singleflight semantics:
// concurrent DoCodecCtx calls for one key run the function once and
// share the result. Errors are not cached, so a failed stage re-runs on
// retry. Completed values live in two tiers: an unbounded or LRU memory
// tier, and optionally a persistent disk tier, so a fresh process
// warm-starts from results an earlier one computed. Stages without a
// codec stay memory-only — correctness never depends on a type being
// serializable.
type Cache struct {
	mu       sync.Mutex
	inflight map[string]*cacheEntry
	mem      *Memory
	disk     BlobStore // nil: memory only

	diskErrs atomic.Int64 // codec-mismatched, undecodable or unencodable disk entries
}

// NewCache builds a cache over a memory tier and an optional disk tier
// (nil keeps the cache memory-only).
func NewCache(mem *Memory, disk BlobStore) *Cache {
	return &Cache{inflight: map[string]*cacheEntry{}, mem: mem, disk: disk}
}

// DoCodecCtx returns the memoized value for key, computing it with fn on
// first use; the second result reports whether the value was served from
// cache. A nil codec memoizes in memory only. With a codec, the disk
// tier is read before fn runs (a disk hit counts as cached) and the
// computed value is written through to it after; the disk read runs
// under the same singleflight protection as fn, so concurrent misses of
// one key cost one read. Memory is probed only under the cache mutex.
//
// An already-cancelled context returns ctx.Err() without touching the
// cache, and a waiter abandoning an in-flight computation returns
// ctx.Err() while the computation itself runs to completion (its result
// stays cached for later callers). A computation that returns an error —
// including a context error from a cancelled fn — is evicted, never
// cached, so the cache holds only complete successful values.
func (c *Cache) DoCodecCtx(ctx context.Context, key string, codec Codec, fn func() (any, error)) (any, bool, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		c.mu.Lock()
		if e, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if e.err == nil {
				return e.value, true, nil
			}
			// The in-flight computation failed. Evict the dead entry
			// (whichever of the owner and the waiters gets there first)
			// and retry with a fresh computation.
			c.mu.Lock()
			if c.inflight[key] == e {
				delete(c.inflight, key)
			}
			c.mu.Unlock()
			continue
		}
		if v, ok := c.mem.Probe(key); ok {
			c.mu.Unlock()
			return v, true, nil
		}
		e := &cacheEntry{done: make(chan struct{})}
		c.inflight[key] = e
		c.mu.Unlock()

		var fromDisk bool
		e.value, fromDisk = c.load(key, codec)
		if !fromDisk {
			e.value, e.err = fn()
		}
		close(e.done)
		if e.err == nil && !fromDisk {
			// Write through before releasing the key: later callers keep
			// hitting the settled in-flight entry until the tiers hold
			// the value, so there is no window where a completed result
			// is invisible.
			c.save(key, codec, e.value)
		}
		c.mu.Lock()
		if c.inflight[key] == e {
			delete(c.inflight, key)
		}
		c.mu.Unlock()
		if e.err != nil {
			return nil, false, e.err
		}
		return e.value, fromDisk, nil
	}
}

// load reads key from the disk tier (the caller already probed memory)
// and promotes a decoded hit into memory. An entry recorded under a
// different codec name, or one that fails to decode, counts as a disk
// error and a miss — the stage recomputes and overwrites it.
func (c *Cache) load(key string, codec Codec) (any, bool) {
	if c.disk == nil || codec == nil {
		return nil, false
	}
	name, data, ok := c.disk.Get(key)
	if !ok {
		return nil, false
	}
	if name != codec.Name() {
		c.diskErrs.Add(1)
		return nil, false
	}
	v, err := codec.Decode(data)
	if err != nil {
		c.diskErrs.Add(1)
		return nil, false
	}
	c.mem.Save(key, v)
	return v, true
}

// save writes through: memory always, disk when the stage has a codec.
func (c *Cache) save(key string, codec Codec, v any) {
	c.mem.Save(key, v)
	if c.disk == nil || codec == nil {
		return
	}
	data, err := codec.Encode(v)
	if err != nil {
		c.diskErrs.Add(1)
		return
	}
	c.disk.Put(key, codec.Name(), data)
}

// Len reports how many entries the cache holds: completed values resident
// in the memory tier plus computations still in flight.
func (c *Cache) Len() int {
	c.mu.Lock()
	n := len(c.inflight)
	c.mu.Unlock()
	return n + c.mem.Len()
}

// Stats snapshots the per-tier counters; codec failures count into the
// disk tier's Errors alongside the blob-level corruption counter.
func (c *Cache) Stats() StoreStats {
	s := StoreStats{Mem: c.mem.Stats()}
	if c.disk == nil {
		return s
	}
	d := c.disk.Stats()
	d.Errors += c.diskErrs.Load()
	s.Disk = &d
	return s
}

// Purge drops every completed entry from both tiers; in-flight
// computations finish and re-populate normally.
func (c *Cache) Purge() error {
	c.mem.Purge()
	if c.disk == nil {
		return nil
	}
	return c.disk.Purge()
}

// StageReport is the timing/error record of one executed stage.
type StageReport struct {
	Stage  string
	Dur    time.Duration
	Cached bool
	Err    error
}

// String renders one report line.
func (r StageReport) String() string {
	s := fmt.Sprintf("%-14s %10s", r.Stage, r.Dur.Round(time.Microsecond))
	if r.Cached {
		s += "  (cached)"
	}
	if r.Err != nil {
		s += "  ERROR: " + r.Err.Error()
	}
	return s
}

// Trace accumulates stage reports across a run; safe for concurrent use.
type Trace struct {
	mu      sync.Mutex
	reports []StageReport
}

// Add records one stage report.
func (t *Trace) Add(r StageReport) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.reports = append(t.reports, r)
	t.mu.Unlock()
}

// Reports returns a copy of the recorded reports in completion order.
func (t *Trace) Reports() []StageReport {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]StageReport(nil), t.reports...)
}

// String renders the trace as one line per stage, slowest first.
func (t *Trace) String() string {
	rs := t.Reports()
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].Dur > rs[j].Dur })
	s := ""
	for _, r := range rs {
		s += r.String() + "\n"
	}
	return s
}
