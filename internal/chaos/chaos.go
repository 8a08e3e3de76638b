// Package chaos is the repo's fault-injection soak harness: it runs one
// fabric sweep under K seeded fault schedules and demands that every
// run either completes with canonical bytes identical to the fault-free
// reference or fails with a typed error — no hangs, no goroutine leaks,
// no readable-but-wrong store entries.
//
// Each schedule builds a full miniature fleet: per-worker kits with the
// injector armed (flow stages, shared artifact store), a
// coordinator whose HTTP client routes through fault.Transport
// (dispatch failures, synthesized 503s, mid-stream cuts), and a
// deadline that converts any hang into a verdict failure. Because
// fault.Schedule bounds every rule's fire count, retries eventually
// outlast the schedule: convergence is a property of the plan, and the
// verdict checks the stack delivered it.
package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"cnfetdk/internal/fabric"
	"cnfetdk/internal/fault"
	"cnfetdk/internal/flow"
	"cnfetdk/internal/service"
	"cnfetdk/internal/store"
	"cnfetdk/internal/sweep"
)

// Verdict outcomes.
const (
	// OutcomeIdentical: the run completed and its canonical report
	// bytes match the fault-free reference exactly.
	OutcomeIdentical = "identical"
	// OutcomeTypedError: the run failed, but with a *fabric.SweepError
	// — the caller got a typed, actionable failure (possibly carrying
	// a salvaged partial report), not a hang or a corrupt result.
	OutcomeTypedError = "typed_error"
	// OutcomeFail: anything else — divergent bytes, an untyped error,
	// a deadline expiry (= hang), a goroutine leak, or a misfiled
	// store entry. Any OutcomeFail fails the soak.
	OutcomeFail = "fail"
)

// Catalog is the injection-point menu soak schedules draw from: every
// fault site the stack declares, with the actions each one supports.
func Catalog() []fault.PointSpec {
	return []fault.PointSpec{
		{Point: "store.put.tempfile", Actions: []string{fault.ActionError}},
		{Point: "store.put.write", Actions: []string{fault.ActionError, fault.ActionTorn}},
		{Point: "store.put.sync", Actions: []string{fault.ActionError}},
		{Point: "store.put.rename", Actions: []string{fault.ActionError, fault.ActionCrash}},
		{Point: "store.get.read", Actions: []string{fault.ActionError}},
		{Point: "fabric.lease.dispatch", Actions: []string{fault.ActionError, fault.ActionDelay}},
		{Point: "fabric.lease.status", Actions: []string{fault.ActionError}},
		{Point: "fabric.lease.cut", Actions: []string{fault.ActionError}},
		{Point: "flow.stage.*", Actions: []string{fault.ActionError, fault.ActionPanic, fault.ActionHang}},
	}
}

// DefaultSpec is the 24-point soak sweep: two circuits, two placement
// schemes and six seeds, with a Monte Carlo analysis so results carry
// seed-dependent payloads that would expose any nondeterminism.
func DefaultSpec() sweep.Spec {
	return sweep.Spec{
		Name: "chaos-soak",
		Base: flow.Request{
			Techs:    []string{"cnfet"},
			Analyses: []flow.Analysis{flow.AnalysisArea, flow.AnalysisImmunity},
			MCTubes:  8,
		},
		Axes: sweep.Axes{
			Circuits:   []string{"mux2", "dec2"},
			Placements: []string{"rows", "shelves"},
			Seeds:      []int64{1, 2, 3, 4, 5, 6},
		},
	}
}

// Config tunes a soak. Zero values select the defaults in brackets.
type Config struct {
	// Spec is the sweep every run executes [DefaultSpec()].
	Spec sweep.Spec
	// Schedules is how many seeded fault schedules to run [8].
	Schedules int
	// Seed is the base seed; schedule i uses Seed+i [1].
	Seed int64
	// Workers is the fleet size per run [2].
	Workers int
	// Rules is how many rules each schedule draws [4].
	Rules int
	// StageTimeout is the workers' per-stage watchdog — what converts
	// an injected stage hang into a typed, retryable error [2s].
	StageTimeout time.Duration
	// RunTimeout bounds one schedule's sweep; expiry means something
	// hung, which is a verdict failure [2m].
	RunTimeout time.Duration
	// Logf receives progress lines [discard].
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if len(c.Spec.Axes.Circuits) == 0 {
		c.Spec = DefaultSpec()
	}
	if c.Schedules <= 0 {
		c.Schedules = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Rules <= 0 {
		c.Rules = 4
	}
	if c.StageTimeout <= 0 {
		c.StageTimeout = 2 * time.Second
	}
	if c.RunTimeout <= 0 {
		c.RunTimeout = 2 * time.Minute
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Verdict is one schedule's outcome — the soak's unit of evidence,
// serialized into the verdict log.
type Verdict struct {
	Schedule int        `json:"schedule"`
	Seed     int64      `json:"seed"`
	Plan     fault.Plan `json:"plan"`
	// Outcome is OutcomeIdentical, OutcomeTypedError or OutcomeFail.
	Outcome string `json:"outcome"`
	// Error echoes the run's typed error, when it failed typed.
	Error string `json:"error,omitempty"`
	// Detail explains an OutcomeFail.
	Detail string `json:"detail,omitempty"`
	// Salvaged counts points recovered in a partial report on typed
	// failures.
	Salvaged int `json:"salvaged,omitempty"`
	// Fired is how many injected faults actually triggered.
	Fired int `json:"fired"`
	// Store is the post-run artifact-store scan.
	Store store.VerifyResult `json:"store"`
	// ElapsedMS is the schedule's wall time.
	ElapsedMS float64 `json:"elapsed_ms"`
	// OK is Outcome != OutcomeFail.
	OK bool `json:"ok"`
}

func (v *Verdict) failf(format string, args ...any) {
	v.Outcome = OutcomeFail
	v.OK = false
	// The first failure is the verdict; later ones append.
	msg := fmt.Sprintf(format, args...)
	if v.Detail != "" {
		msg = v.Detail + "; " + msg
	}
	v.Detail = msg
}

// Result aggregates a soak.
type Result struct {
	Spec      string    `json:"spec"`
	Points    int       `json:"points"`
	Schedules int       `json:"schedules"`
	Passed    int       `json:"passed"`
	Failed    int       `json:"failed"`
	Verdicts  []Verdict `json:"verdicts"`
}

// OK reports whether every schedule passed.
func (r *Result) OK() bool { return r.Failed == 0 }

// Soak runs the configured chaos soak: one fault-free reference run,
// then cfg.Schedules seeded fleets. It returns an error only for
// harness-level problems (the reference run failing, ctx cancelled);
// schedule failures are data, reported per-Verdict.
func Soak(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	n, err := cfg.Spec.NumPoints()
	if err != nil {
		return nil, fmt.Errorf("chaos: spec: %w", err)
	}

	cfg.Logf("chaos: reference run (%d points, no faults)", n)
	kit, err := flow.New(ctx)
	if err != nil {
		return nil, fmt.Errorf("chaos: reference kit: %w", err)
	}
	rep, err := sweep.Run(ctx, kit, cfg.Spec)
	if err != nil {
		return nil, fmt.Errorf("chaos: reference run: %w", err)
	}
	want, err := rep.CanonicalJSON()
	if err != nil {
		return nil, fmt.Errorf("chaos: reference canonical: %w", err)
	}

	res := &Result{Spec: cfg.Spec.Name, Points: n, Schedules: cfg.Schedules}
	for i := 0; i < cfg.Schedules; i++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		v := runSchedule(ctx, cfg, cfg.Seed+int64(i), want)
		v.Schedule = i
		if v.OK {
			res.Passed++
		} else {
			res.Failed++
		}
		res.Verdicts = append(res.Verdicts, v)
		cfg.Logf("chaos: schedule %d (seed %d): %s%s (%d faults fired, %.0fms)",
			i, v.Seed, v.Outcome, failSuffix(v), v.Fired, v.ElapsedMS)
	}
	return res, nil
}

func failSuffix(v Verdict) string {
	if v.OK {
		return ""
	}
	return " — " + v.Detail
}

// runSchedule executes one seeded schedule and renders its verdict.
func runSchedule(ctx context.Context, cfg Config, seed int64, want []byte) (v Verdict) {
	v.Seed = seed
	v.Plan = fault.Schedule(seed, Catalog(), cfg.Rules)
	v.OK = true
	inj, err := fault.New(v.Plan)
	if err != nil {
		v.failf("compiling plan: %v", err)
		return v
	}
	defer inj.Close()
	defer func() { v.Fired = len(inj.Events()) }()

	// Goroutine accounting brackets everything the schedule spawns:
	// fleet, coordinator run, HTTP plumbing.
	baseline, _ := fault.Settle(fault.Goroutines(), 0, time.Second)

	storeDir, err := os.MkdirTemp("", "cnfet-chaos-*")
	if err != nil {
		v.failf("store dir: %v", err)
		return v
	}
	defer os.RemoveAll(storeDir)

	client := &http.Client{Transport: &fault.Transport{Inj: inj}}
	coord := fabric.New(fabric.Options{
		LeasePoints:      3,
		MaxAttempts:      8,
		RetryBackoff:     5 * time.Millisecond,
		MaxRetryBackoff:  100 * time.Millisecond,
		BackoffSeed:      seed,
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
		LeaseTimeout:     5 * cfg.StageTimeout,
		HeartbeatTTL:     time.Minute,
		StallTimeout:     cfg.RunTimeout,
		Poll:             5 * time.Millisecond,
		Client:           client,
		Logf:             cfg.Logf,
	})

	// The fleet: every worker kit arms the same injector and shares one
	// store directory, so cross-process flock contention and corrupt
	// entry handling are part of every schedule.
	var servers []*httptest.Server
	shutdown := func() {
		for _, s := range servers {
			s.Close()
		}
		client.CloseIdleConnections()
	}
	defer shutdown()
	var urls []string
	for w := 0; w < cfg.Workers; w++ {
		kit, err := flow.New(ctx,
			flow.WithFaults(inj),
			flow.WithStore(storeDir),
			flow.WithStageTimeout(cfg.StageTimeout))
		if err != nil {
			v.failf("worker %d kit: %v", w, err)
			return v
		}
		srv := httptest.NewServer(service.NewServer(kit))
		servers = append(servers, srv)
		urls = append(urls, srv.URL)
		if _, err := coord.Join(srv.URL, true); err != nil {
			v.failf("worker %d join: %v", w, err)
			return v
		}
	}

	// Production workers heartbeat (cnfetd -join runs fabric.JoinLoop),
	// and the coordinator's failure model depends on it: a dispatch
	// failure sidelines a worker until its next enrollment. Without a
	// heartbeat every injected dispatch fault would sideline a worker
	// permanently and starve the run — so the soak heartbeats too.
	hbCtx, hbCancel := context.WithCancel(ctx)
	defer hbCancel()
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-tick.C:
				for _, u := range urls {
					coord.Join(u, true)
				}
			}
		}
	}()

	start := time.Now()
	runCtx, cancel := context.WithTimeout(ctx, cfg.RunTimeout)
	rep, runErr := coord.RunSweep(runCtx, cfg.Spec, fabric.RunOptions{})
	cancel()
	v.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)

	var se *fabric.SweepError
	switch {
	case runErr == nil:
		got, cerr := rep.CanonicalJSON()
		if cerr != nil {
			v.failf("canonicalizing report: %v", cerr)
		} else if !bytes.Equal(got, want) {
			v.failf("canonical bytes diverge from fault-free reference (%d vs %d bytes)", len(got), len(want))
		} else {
			v.Outcome = OutcomeIdentical
		}
	case errors.Is(runErr, context.DeadlineExceeded) && ctx.Err() == nil:
		// The per-run deadline expired: something hung past every
		// watchdog. That is exactly what the soak exists to catch.
		v.failf("run deadline expired (hang): %v", runErr)
	case errors.As(runErr, &se):
		v.Outcome = OutcomeTypedError
		v.Error = runErr.Error()
		if se.Partial != nil {
			v.Salvaged = len(se.Partial.Points)
		}
	default:
		v.failf("untyped failure: %v", runErr)
	}

	// Wind the fleet down before accounting: Close waits out in-flight
	// handlers, so anything still alive afterwards is a leak.
	hbCancel()
	<-hbDone
	shutdown()
	if n, ok := fault.Settle(baseline, 3, 10*time.Second); !ok {
		v.failf("goroutine leak: baseline %d, settled at %d", baseline, n)
		return v
	}

	// The store must never hold a readable entry filed under the wrong
	// key, no matter what the schedule did to its write path.
	disk, derr := store.Open(storeDir)
	if derr != nil {
		v.failf("reopening store: %v", derr)
		return v
	}
	v.Store = disk.Verify()
	if v.Store.Misfiled != 0 {
		v.failf("store holds %d misfiled (readable, wrong-key) entries", v.Store.Misfiled)
	}
	return v
}
