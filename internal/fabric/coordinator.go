package fabric

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cnfetdk/internal/promtext"
	"cnfetdk/internal/sweep"
)

// Options tunes a Coordinator. Zero values select the Default*
// constants.
type Options struct {
	// LeasePoints is how many consecutive points one lease covers:
	// small leases rebalance and recover faster, large ones amortize
	// per-dispatch overhead and share more prefix stages worker-side.
	LeasePoints int
	// MaxAttempts bounds how often one lease is dispatched before the
	// sweep fails fast (a poison point must not spin the fleet).
	MaxAttempts int
	// RetryBackoff is the base of the lease re-dispatch backoff. The
	// actual delay is full-jitter: uniform in [0, min(MaxRetryBackoff,
	// RetryBackoff<<(attempt-1))), so a burst of failed leases does not
	// re-dispatch in lockstep.
	RetryBackoff time.Duration
	// MaxRetryBackoff caps the exponential backoff window.
	MaxRetryBackoff time.Duration
	// BackoffSeed seeds the jitter RNG; 0 seeds from the clock. Fixed
	// seeds make retry schedules replayable in tests.
	BackoffSeed int64
	// BreakerThreshold is how many consecutive lease failures open a
	// worker's circuit breaker (no leases until the cooldown passes).
	// 0 selects the default; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is the base hold-out once the breaker opens; it
	// doubles per further consecutive failure, capped at 8x.
	BreakerCooldown time.Duration
	// LeaseTimeout is the longest silence tolerated on a lease stream
	// before the lease is cancelled and retried.
	LeaseTimeout time.Duration
	// HeartbeatTTL is how long a worker stays live past its last
	// enrollment POST.
	HeartbeatTTL time.Duration
	// StallTimeout fails a sweep that has had zero live workers for
	// this long (a fleet that fully died and never re-joined).
	StallTimeout time.Duration
	// MaxSweepPoints is the coordinator's per-sweep quota (0 selects
	// sweep.DefaultMaxPoints).
	MaxSweepPoints int
	// Poll is the scheduler's cadence for noticing joined/died workers.
	Poll time.Duration
	// Client performs worker dispatch (nil = http.DefaultClient; the
	// client must not impose an overall request timeout — lease streams
	// legitimately run long, bounded by LeaseTimeout per line instead).
	Client *http.Client
	// Logf, when set, receives coordinator event logs.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.LeasePoints <= 0 {
		o.LeasePoints = DefaultLeasePoints
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = DefaultMaxAttempts
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = DefaultRetryBackoff
	}
	if o.MaxRetryBackoff <= 0 {
		o.MaxRetryBackoff = DefaultMaxRetryBackoff
	}
	if o.MaxRetryBackoff < o.RetryBackoff {
		o.MaxRetryBackoff = o.RetryBackoff
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = DefaultBreakerThreshold
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = DefaultBreakerCooldown
	}
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = DefaultLeaseTimeout
	}
	if o.HeartbeatTTL <= 0 {
		o.HeartbeatTTL = DefaultHeartbeatTTL
	}
	if o.StallTimeout <= 0 {
		o.StallTimeout = DefaultStallTimeout
	}
	if o.MaxSweepPoints <= 0 {
		o.MaxSweepPoints = sweep.DefaultMaxPoints
	}
	if o.Poll <= 0 {
		o.Poll = DefaultPoll
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Coordinator owns the worker registry and executes fabric sweeps.
type Coordinator struct {
	opts Options

	rngMu sync.Mutex
	rng   *rand.Rand // full-jitter backoff source (seedable for tests)

	mu      sync.Mutex
	workers map[string]*worker
	runs    map[int64]*run
	runSeq  int64

	// Fleet-lifetime counters, exposed on /metrics.
	pointsDone       atomic.Int64
	pointsFailed     atomic.Int64
	pointsDuplicate  atomic.Int64
	leasesDispatched atomic.Int64
	leaseRetries     atomic.Int64
	breakerTrips     atomic.Int64
	sweepsStarted    atomic.Int64
	sweepsDone       atomic.Int64
	sweepsFailed     atomic.Int64
}

// worker is one registry entry. lastSeen is guarded by Coordinator.mu
// (zero marks the worker suspect until it heartbeats again); the
// counters are atomic for the metrics path.
type worker struct {
	url      string
	static   bool // seeded at startup, exempt from the heartbeat TTL
	joined   time.Time
	lastSeen time.Time
	points   atomic.Int64
	leases   atomic.Int64
	failures atomic.Int64

	// Circuit-breaker and health state, guarded by Coordinator.mu. A
	// worker whose leases keep failing is held out of rotation for an
	// escalating cooldown even if its heartbeat says it is alive — a
	// live-but-sick worker (full disk, thrashing) must not re-absorb
	// every retried lease. health is an EWMA of lease outcomes in [0,1].
	consecFails int
	trips       int64
	openUntil   time.Time
	health      float64
}

// healthDecay is the EWMA factor: health' = decay*health + (1-decay)*outcome.
const healthDecay = 0.8

// New builds a coordinator with no workers registered.
func New(opts Options) *Coordinator {
	o := opts.withDefaults()
	seed := o.BackoffSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Coordinator{
		opts:    o,
		rng:     rand.New(rand.NewSource(seed)),
		workers: map[string]*worker{},
		runs:    map[int64]*run{},
	}
}

// leaseBackoff returns the delay before a lease's attempt-th re-dispatch:
// full jitter over an exponentially-grown, capped window. Full jitter
// (uniform in [0, window)) decorrelates retries — when a worker death
// fails several leases at once, they come back spread out instead of
// hammering the survivor in lockstep.
func (c *Coordinator) leaseBackoff(attempt int) time.Duration {
	window := c.opts.RetryBackoff
	for i := 1; i < attempt && window < c.opts.MaxRetryBackoff; i++ {
		window <<= 1
	}
	if window > c.opts.MaxRetryBackoff || window <= 0 { // <=0 guards shift overflow
		window = c.opts.MaxRetryBackoff
	}
	c.rngMu.Lock()
	f := c.rng.Float64()
	c.rngMu.Unlock()
	return time.Duration(f * float64(window))
}

// recordLease folds one lease outcome into the worker's health score and
// circuit breaker. On failure past BreakerThreshold consecutive misses
// the breaker opens for an escalating cooldown (doubling per further
// failure, capped at 8x): heartbeats prove the process is up, but only
// completed leases prove it is healthy.
func (c *Coordinator) recordLease(w *worker, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ok {
		w.consecFails = 0
		w.openUntil = time.Time{}
		w.health = healthDecay*w.health + (1 - healthDecay)
		return
	}
	w.health = healthDecay * w.health
	w.consecFails++
	if c.opts.BreakerThreshold < 0 || w.consecFails < c.opts.BreakerThreshold {
		return
	}
	over := w.consecFails - c.opts.BreakerThreshold
	if over > 3 {
		over = 3
	}
	hold := c.opts.BreakerCooldown << over
	w.openUntil = time.Now().Add(hold)
	w.trips++
	c.breakerTrips.Add(1)
	c.opts.Logf("worker breaker open for %s after %d consecutive lease failures: %s", hold, w.consecFails, w.url)
}

// normalizeWorkerURL validates and canonicalizes an advertised URL.
func normalizeWorkerURL(raw string) (string, error) {
	u, err := url.Parse(strings.TrimSpace(raw))
	if err != nil {
		return "", fmt.Errorf("fabric: bad worker url %q: %w", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("fabric: bad worker url %q: want http(s)://host[:port]", raw)
	}
	u.Path = strings.TrimRight(u.Path, "/")
	u.RawQuery, u.Fragment = "", ""
	return u.String(), nil
}

// Join enrolls (or heartbeats) a worker by its advertised URL — an
// idempotent upsert that refreshes liveness. static exempts the worker
// from the heartbeat TTL (seeded fleets without -join loops).
func (c *Coordinator) Join(rawURL string, static bool) (JoinResponse, error) {
	u, err := normalizeWorkerURL(rawURL)
	if err != nil {
		return JoinResponse{}, err
	}
	now := time.Now()
	c.mu.Lock()
	w := c.workers[u]
	if w == nil {
		w = &worker{url: u, joined: now, health: 1}
		c.workers[u] = w
		c.opts.Logf("worker joined: %s", u)
	}
	w.static = w.static || static
	w.lastSeen = now
	c.mu.Unlock()
	return JoinResponse{ID: u, HeartbeatSeconds: (c.opts.HeartbeatTTL / 3).Seconds()}, nil
}

// aliveLocked reports worker liveness under c.mu: suspect workers
// (zero lastSeen) are dead until they re-join; static workers never
// expire by TTL; everyone else must have heartbeat within the TTL.
func (c *Coordinator) aliveLocked(w *worker, now time.Time) bool {
	if w.lastSeen.IsZero() {
		return false
	}
	return w.static || now.Sub(w.lastSeen) <= c.opts.HeartbeatTTL
}

// alive reports whether the worker counts toward fleet liveness.
func (c *Coordinator) alive(w *worker) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aliveLocked(w, time.Now())
}

// leasableLocked adds the circuit breaker to liveness: an alive worker
// whose breaker is open receives no leases until the cooldown passes
// (half-open: the first lease after expiry probes it — success closes
// the breaker, failure re-opens it longer).
func (c *Coordinator) leasableLocked(w *worker, now time.Time) bool {
	return c.aliveLocked(w, now) && !now.Before(w.openUntil)
}

// leasable reports whether the worker may receive leases right now.
func (c *Coordinator) leasable(w *worker) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leasableLocked(w, time.Now())
}

// suspect marks a worker dead after a dispatch failure; the next
// heartbeat revives it.
func (c *Coordinator) suspect(w *worker) {
	c.mu.Lock()
	if !w.lastSeen.IsZero() {
		c.opts.Logf("worker suspect after dispatch failure: %s", w.url)
	}
	w.lastSeen = time.Time{}
	c.mu.Unlock()
}

// live snapshots the currently-live workers.
func (c *Coordinator) live() []*worker {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*worker
	for _, w := range c.workers {
		if c.aliveLocked(w, now) {
			out = append(out, w)
		}
	}
	return out
}

// Workers lists the registry for the fabric API, sorted by URL.
func (c *Coordinator) Workers() []WorkerStatus {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		st := WorkerStatus{
			URL:          w.url,
			Alive:        c.aliveLocked(w, now),
			Joined:       w.joined,
			Points:       w.points.Load(),
			Leases:       w.leases.Load(),
			Failures:     w.failures.Load(),
			Health:       w.health,
			BreakerTrips: w.trips,
		}
		if !w.lastSeen.IsZero() {
			st.LastSeenSeconds = now.Sub(w.lastSeen).Seconds()
		}
		if now.Before(w.openUntil) {
			st.BreakerOpenSeconds = w.openUntil.Sub(now).Seconds()
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// SweepError is the typed failure of a fabric sweep: the fatal cause
// plus whatever portion of the report could be salvaged from the points
// delivered before the failure. Callers that only care about the cause
// unwrap it; callers that want the partial data (the daemon's stream
// surface, triage tooling) read Partial.
type SweepError struct {
	// Cause is the fatal error that ended the sweep.
	Cause error
	// Partial is the salvaged report (Partial flag set), nil when no
	// points completed before the failure.
	Partial *sweep.Report
	// Complete and Total count delivered points vs the spec's expansion.
	Complete, Total int
}

func (e *SweepError) Error() string {
	return fmt.Sprintf("%v (%d/%d points salvaged)", e.Cause, e.Complete, e.Total)
}

func (e *SweepError) Unwrap() error { return e.Cause }

// lease is one contiguous shard of a sweep's index space.
type lease struct {
	offset, count int
	attempt       int // dispatches so far
}

// RunOptions attaches observers to one fabric sweep. Both callbacks are
// serialized (one at a time, never concurrently).
type RunOptions struct {
	// OnPoint receives every first-delivery point result with the
	// worker that produced it, in completion order.
	OnPoint func(worker string, pr sweep.PointResult)
	// OnLease receives lease lifecycle events (dispatch/done/retry/failed).
	OnLease func(LeaseEvent)
}

// run is the state of one fabric sweep.
type run struct {
	c      *Coordinator
	spec   sweep.Spec
	n      int
	ctx    context.Context
	cancel context.CancelFunc
	opts   RunOptions

	pending chan *lease
	leases  int
	done    chan struct{}
	once    sync.Once

	emitMu sync.Mutex // serializes OnPoint/OnLease

	mu          sync.Mutex
	results     map[int]sweep.PointResult
	outstanding int
	fatal       error
	runners     map[string]bool
	active      map[*lease]leaseDispatch
	workersUsed map[string]bool
	retries     int64
	lastAlive   time.Time
}

type leaseDispatch struct {
	worker string
	at     time.Time
}

// Admit is the coordinator's admission check, run by RunSweep and by
// the daemon's fabric-sweep route before it opens a stream. The spec
// must be unsharded (no window) and within the per-sweep quota (an
// over-quota error wraps sweep.ErrTooManyPoints), and every point must
// validate. It returns the point count. The spec is never mutated: the
// merged report echoes it, and any edit would break byte-identity with
// a single-process run of the same spec.
func (c *Coordinator) Admit(spec sweep.Spec) (int, error) {
	if spec.Window != nil {
		return 0, fmt.Errorf("fabric: sweep spec must be unsharded, got a window at offset %d", spec.Window.Offset)
	}
	n, err := spec.Admit(c.opts.MaxSweepPoints)
	if errors.Is(err, sweep.ErrTooManyPoints) {
		return 0, fmt.Errorf("fabric: coordinator quota: %w", err)
	}
	return n, err
}

// RunSweep shards spec across the live fleet and returns the merged
// report; Admit gates it first. Workers may join mid-sweep (they start
// receiving leases at the next scheduler poll) and die mid-lease (the
// lease is retried on the remaining fleet with backoff, MaxAttempts-
// bounded). Cancelling ctx cancels every in-flight lease stream, which
// the workers observe as context.Canceled on their own sweep executions.
func (c *Coordinator) RunSweep(ctx context.Context, spec sweep.Spec, opts RunOptions) (*sweep.Report, error) {
	n, err := c.Admit(spec)
	if err != nil {
		return nil, err
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &run{
		c:           c,
		spec:        spec,
		n:           n,
		ctx:         runCtx,
		cancel:      cancel,
		opts:        opts,
		done:        make(chan struct{}),
		results:     make(map[int]sweep.PointResult, n),
		runners:     map[string]bool{},
		active:      map[*lease]leaseDispatch{},
		workersUsed: map[string]bool{},
		lastAlive:   time.Now(),
	}
	for off := 0; off < n; off += c.opts.LeasePoints {
		r.leases++
	}
	r.pending = make(chan *lease, r.leases)
	for off := 0; off < n; off += c.opts.LeasePoints {
		r.pending <- &lease{offset: off, count: min(c.opts.LeasePoints, n-off)}
	}
	r.outstanding = r.leases

	c.sweepsStarted.Add(1)
	c.mu.Lock()
	c.runSeq++
	id := c.runSeq
	c.runs[id] = r
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.runs, id)
		c.mu.Unlock()
	}()
	c.opts.Logf("sweep %d: %d points in %d leases", id, n, r.leases)

	t0 := time.Now()
	go r.schedule()

	select {
	case <-r.done:
	case <-ctx.Done():
	}
	if err := ctx.Err(); err != nil {
		c.sweepsFailed.Add(1)
		return nil, err
	}
	r.mu.Lock()
	fatal := r.fatal
	pts := make([]sweep.PointResult, 0, len(r.results))
	cached, stages := 0, 0
	for _, pr := range r.results {
		pts = append(pts, pr)
		cached += pr.CachedStages
		stages += pr.TotalStages
	}
	usedWorkers := len(r.workersUsed)
	retries := r.retries
	r.mu.Unlock()
	if fatal != nil {
		c.sweepsFailed.Add(1)
		se := &SweepError{Cause: fatal, Complete: len(pts), Total: n}
		if len(pts) > 0 {
			// Salvage what the fleet did finish: points already delivered
			// are correct (deterministic index space, first-write-wins),
			// so triage gets a Partial-flagged report instead of nothing.
			if prep, perr := sweep.AssemblePartial(spec, pts); perr == nil {
				se.Partial = prep
			}
		}
		return nil, se
	}

	rep, err := sweep.Assemble(spec, pts)
	if err != nil {
		c.sweepsFailed.Add(1)
		return nil, err
	}
	rep.Trace = &sweep.RunTrace{
		WallMillis:     float64(time.Since(t0).Microseconds()) / 1000,
		CacheHitStages: cached,
		TotalStages:    stages,
		Leases:         r.leases,
		LeaseRetries:   int(retries),
		FabricWorkers:  usedWorkers,
	}
	c.sweepsDone.Add(1)
	return rep, nil
}

// schedule keeps runners matched to the live fleet until the run
// settles: workers that join mid-sweep get a runner at the next poll,
// and a fleet that stays empty past StallTimeout fails the sweep.
func (r *run) schedule() {
	tick := time.NewTicker(r.c.opts.Poll)
	defer tick.Stop()
	for {
		live := r.c.live()
		// A live worker with an open breaker gets no runner; the poll
		// re-checks it once the cooldown passes (half-open). Checked
		// before taking r.mu — WriteMetrics holds c.mu while taking
		// r.mu, so the reverse order here would invite deadlock.
		leasable := make(map[string]bool, len(live))
		for _, w := range live {
			leasable[w.url] = r.c.leasable(w)
		}
		r.mu.Lock()
		if len(live) > 0 {
			r.lastAlive = time.Now()
		}
		stalled := len(live) == 0 && time.Since(r.lastAlive) > r.c.opts.StallTimeout
		var spawn []*worker
		for _, w := range live {
			if leasable[w.url] && !r.runners[w.url] {
				r.runners[w.url] = true
				spawn = append(spawn, w)
			}
		}
		r.mu.Unlock()
		if stalled {
			r.fail(fmt.Errorf("fabric: no live workers for %s", r.c.opts.StallTimeout))
			return
		}
		for _, w := range spawn {
			go r.runner(w)
		}
		select {
		case <-r.ctx.Done():
			return
		case <-r.done:
			return
		case <-tick.C:
		}
	}
}

// runner pulls leases for one worker until the run settles or the
// worker goes dead/suspect.
func (r *run) runner(w *worker) {
	defer func() {
		r.mu.Lock()
		delete(r.runners, w.url)
		r.mu.Unlock()
	}()
	for {
		if !r.c.leasable(w) {
			return
		}
		select {
		case <-r.ctx.Done():
			return
		case <-r.done:
			return
		case l := <-r.pending:
			if !r.c.leasable(w) {
				// Requeue untouched: liveness flipped between the pull
				// and the dispatch; this was not an attempt.
				r.pending <- l
				return
			}
			if !r.execute(w, l) {
				return
			}
		}
	}
}

// execute dispatches one lease to w, handling retry/reassignment on
// failure. It reports whether the runner should keep pulling leases.
func (r *run) execute(w *worker, l *lease) bool {
	l.attempt++
	r.c.leasesDispatched.Add(1)
	w.leases.Add(1)
	r.mu.Lock()
	r.active[l] = leaseDispatch{worker: w.url, at: time.Now()}
	r.workersUsed[w.url] = true
	r.mu.Unlock()
	r.emitLease(LeaseEvent{State: "dispatch", Offset: l.offset, Count: l.count, Worker: w.url, Attempt: l.attempt})

	err := r.execLease(w, l)

	r.mu.Lock()
	delete(r.active, l)
	r.mu.Unlock()
	if err == nil {
		r.c.recordLease(w, true)
		r.emitLease(LeaseEvent{State: "done", Offset: l.offset, Count: l.count, Worker: w.url, Attempt: l.attempt})
		r.mu.Lock()
		r.outstanding--
		settled := r.outstanding == 0
		r.mu.Unlock()
		if settled {
			r.once.Do(func() { close(r.done) })
		}
		return true
	}
	if r.ctx.Err() != nil {
		return false // run cancelled; the failure is an artifact of it
	}
	w.failures.Add(1)
	r.c.recordLease(w, false)
	r.c.suspect(w)
	r.c.opts.Logf("lease [%d,%d) attempt %d failed on %s: %v", l.offset, l.offset+l.count, l.attempt, w.url, err)
	if l.attempt >= r.c.opts.MaxAttempts {
		r.emitLease(LeaseEvent{State: "failed", Offset: l.offset, Count: l.count, Worker: w.url, Attempt: l.attempt, Error: err.Error()})
		r.fail(fmt.Errorf("fabric: lease [%d,%d) failed after %d attempts (last worker %s): %w",
			l.offset, l.offset+l.count, l.attempt, w.url, err))
		return false
	}
	r.c.leaseRetries.Add(1)
	r.mu.Lock()
	r.retries++
	r.mu.Unlock()
	r.emitLease(LeaseEvent{State: "retry", Offset: l.offset, Count: l.count, Worker: w.url, Attempt: l.attempt, Error: err.Error()})
	// Requeue after backoff without parking the runner: the channel is
	// sized to hold every lease, so the send cannot block.
	backoff := r.c.leaseBackoff(l.attempt)
	go func() {
		select {
		case <-time.After(backoff):
			r.pending <- l
		case <-r.ctx.Done():
		case <-r.done:
		}
	}()
	return false
}

// fail records the first fatal error, cancels in-flight leases, and
// settles the run.
func (r *run) fail(err error) {
	r.mu.Lock()
	if r.fatal == nil {
		r.fatal = err
	}
	r.mu.Unlock()
	r.cancel()
	r.once.Do(func() { close(r.done) })
}

// execLease runs one lease on one worker over the daemon's streaming
// sweep surface: POST the windowed spec, record point lines as they
// arrive, and accept the shard report on the final line. Any transport
// error, non-200 status, worker-reported sweep error, stream
// truncation, or LeaseTimeout of line silence fails the lease.
func (r *run) execLease(w *worker, l *lease) error {
	leaseCtx, cancelLease := context.WithCancel(r.ctx)
	defer cancelLease()
	// The watchdog bounds silence, not total lease time: every received
	// line re-arms it.
	watchdog := time.AfterFunc(r.c.opts.LeaseTimeout, cancelLease)
	defer watchdog.Stop()

	resp, err := postJSON(leaseCtx, r.c.opts.Client, "worker "+w.url,
		w.url+"/v1/sweeps?stream=ndjson", r.spec.Slice(l.offset, l.count))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	done, err := readStream(resp.Body, func(line StreamLine) {
		watchdog.Reset(r.c.opts.LeaseTimeout)
		if line.Point != nil {
			r.record(w, *line.Point)
		}
	})
	switch {
	case err != nil:
		return fmt.Errorf("fabric: stream from %s: %w", w.url, err)
	case done == nil:
		return fmt.Errorf("fabric: worker %s closed the stream before the final report", w.url)
	case done.Error != "":
		return fmt.Errorf("fabric: worker %s failed the shard: %s", w.url, done.Error)
	case done.Report == nil:
		return fmt.Errorf("fabric: worker %s finished without a shard report", w.url)
	}
	return r.acceptShard(w, l, done.Report)
}

// acceptShard verifies the shard report covers the lease's window
// exactly and records its points (the report is authoritative — any
// point line the stream dropped is recovered here).
func (r *run) acceptShard(w *worker, l *lease, rep *sweep.Report) error {
	if len(rep.Points) != l.count {
		return fmt.Errorf("fabric: worker %s returned %d points for a %d-point lease", w.url, len(rep.Points), l.count)
	}
	seen := make(map[int]bool, l.count)
	for _, pr := range rep.Points {
		if pr.Index < l.offset || pr.Index >= l.offset+l.count || seen[pr.Index] {
			return fmt.Errorf("fabric: worker %s returned point %d outside (or twice within) lease [%d,%d)",
				w.url, pr.Index, l.offset, l.offset+l.count)
		}
		seen[pr.Index] = true
	}
	for _, pr := range rep.Points {
		r.record(w, pr)
	}
	return nil
}

// record stores one point result, first delivery wins: a retried lease
// re-executes its whole window, and the deterministic index space makes
// duplicates byte-equivalent, so later deliveries are dropped (counted
// for the metrics surface).
func (r *run) record(w *worker, pr sweep.PointResult) {
	r.mu.Lock()
	if _, dup := r.results[pr.Index]; dup {
		r.mu.Unlock()
		r.c.pointsDuplicate.Add(1)
		return
	}
	r.results[pr.Index] = pr
	r.mu.Unlock()
	w.points.Add(1)
	if pr.Error != "" {
		r.c.pointsFailed.Add(1)
	} else {
		r.c.pointsDone.Add(1)
	}
	if r.opts.OnPoint != nil {
		r.emitMu.Lock()
		r.opts.OnPoint(w.url, pr)
		r.emitMu.Unlock()
	}
}

// emitLease forwards a lease event, serialized with OnPoint.
func (r *run) emitLease(ev LeaseEvent) {
	if r.opts.OnLease == nil {
		return
	}
	r.emitMu.Lock()
	r.opts.OnLease(ev)
	r.emitMu.Unlock()
}

// WriteMetrics renders the coordinator's metrics in Prometheus text
// format; the daemon's /metrics appends them to its worker-role series.
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
