// Package cnfetdk is an open reimplementation of "Design of Compact
// Imperfection-Immune CNFET Layouts for Standard-Cell-Based Logic
// Synthesis" (Bobba, Zhang, Pullini, Atienza, De Micheli — DATE 2009).
//
// The library generates carbon-nanotube-FET standard cells whose layouts
// are immune to mispositioned CNTs by construction (Euler-trail rows with
// redundant contacts), verifies that immunity geometrically, and ships the
// full design kit the paper describes: lambda design rules shared with a
// 65nm CMOS reference, calibrated CNFET/CMOS electrical models, a SPICE
// engine, a standard-cell library with characterization, logic synthesis,
// placement in the paper's two cell schemes with half-perimeter wire
// loads, and a GDSII writer — a complete logic-to-GDSII flow.
//
// The flow is exposed as a generic design service (internal/flow): a
// serializable flow.Request — circuit by registry name, inline Boolean
// equations or structural netlist; technologies; placement scheme;
// wire-cap model; analyses (area, delay, sta, energy, immunity,
// liberty, gds) — executed by Kit.Run(ctx, Request) with cooperative
// context cancellation, returning a JSON-stable flow.Result with
// per-stage traces. cmd/cnfetd serves the same requests over HTTP
// (POST /v1/jobs, GET /v1/circuits, GET /healthz) on one shared kit and
// memo cache.
//
// Where the delay analysis pays a transistor-level transient, the sta
// analysis answers from the library: internal/sta is a levelized,
// slew-aware static timing engine over the 2-D NLDM
// (input-slew × output-load) surfaces internal/liberty characterizes
// (one reused SPICE workspace per arc grid). sta.Analyze interns a
// netlist — ids, CSR fan-out, Kahn levelization — and propagates
// (arrival, slew) once, level by level. The flow caches the
// characterized model in its nldm stage, so a wire-cap timing sweep (a
// sweep.Spec over wire_caps_per_nm with the sta analysis) characterizes
// once and pays one wire-cap stage and one analysis per point. That makes
// thousand-gate registry circuits (rca16, mult8) timeable in
// milliseconds where their transients cost minutes; per-circuit
// STA-vs-SPICE tracking windows are pinned in the flow tests. See
// DESIGN.md ("Timing engine").
//
// Batched exploration rides on the sweep engine (internal/sweep): a
// declarative sweep.Spec crosses (or zips) axes — circuits, technology
// sets, placement schemes, wire-cap models, Monte Carlo tube counts,
// misalignment angles, variation distributions (tube-count CV, diameter
// sigma, misposition probability), seeds — into concrete requests executed through
// one shared kit, so common prefix stages compute once, and aggregates
// the outcomes (summary statistics, yield-vs-tubes curves, Pareto
// fronts) into a deterministic sweep.Report:
//
//	rep, err := sweep.Run(ctx, kit, sweep.Spec{
//	    Base: flow.Request{Techs: []string{"cnfet"},
//	        Analyses: []flow.Analysis{flow.AnalysisArea, flow.AnalysisImmunity}},
//	    Axes: sweep.Axes{Circuits: []string{"mux2", "dec2"},
//	        Placements: []string{"rows", "shelves"}, MCTubes: []int{16, 32, 48}},
//	})
//
// The same batch runs from the command line (cmd/cnfetsweep):
//
//	cnfetsweep -circuits mux2,dec2 -placements rows,shelves \
//	           -tubes 16,32,48 -techs cnfet -analyses area,immunity -csv points.csv
//
// and over HTTP (cmd/cnfetd): POST /v1/sweeps starts a batch
// asynchronously (poll GET /v1/sweeps/{id} for progress and the final
// report; ?stream=ndjson streams completed points instead), DELETE
// cancels it.
//
// When one machine's cores are not enough, the sweep fabric
// (internal/fabric) shards a spec across a fleet: workers are plain
// cnfetd daemons enrolled with -join <coordinator>, the coordinator
// (cnfetd -coordinator) leases windows of the deterministic
// point-index space to them, retries leases lost to worker deaths, and
// merges the results into a report whose canonical bytes are identical
// to a single-process run. cnfetsweep -workers <coordinator> and
// fabric.Client are the clients; every cnfetd serves /livez, /readyz
// and Prometheus-text /metrics, and a coordinator appends the fabric
// metrics to its /metrics.
//
// The whole serving stack is failure-hardened and provably so: a
// seeded, rule-based fault-injection framework (internal/fault)
// threads named injection points through the artifact store's I/O, the
// fabric transport, every flow stage and the SPICE solver — free when
// disabled, deterministic when armed (cnfetd -faults plan.json).
// What it found is fixed and pinned: panic recovery into typed errors
// in stages and HTTP handlers, per-stage watchdog deadlines
// (-stage-timeout, per-request stage_timeout_ms), full-jitter capped
// lease backoff with a per-worker circuit breaker and health scoring
// in the coordinator, fsync-then-rename crash safety in the store,
// compute-through degradation when the store is sick, partial-report
// salvage in a typed *fabric.SweepError when retries run out, client
// disconnects cancelling streamed sweeps, and a unified graceful drain
// (-grace) covering sweeps, streams and co-optimization searches. The
// chaos soak harness (internal/chaos, run by its TestSoak) replays seeded
// fault schedules over a 24-point fleet sweep and requires every run
// to end byte-identical to the fault-free reference or with a typed
// error — no hangs, no goroutine leaks, no misfiled store entries. See
// DESIGN.md ("Failure model & fault injection").
//
// CNT process variation is a first-class input (device.Variations): a
// flow.Request (or sweep axis) can carry a tube-count CV, a per-tube
// diameter sigma and a misposition probability, turning delay into a
// transistor-level sampled distribution (plan-shared lanes of one
// cells.Ensemble, allocation-free per lane) and immunity into a
// functional yield that composes tube-count and mispositioned-CNT
// failures — the latter exactly 1 for the paper's immune layouts.
// Zero-variation requests reproduce the pre-variation results
// byte-identically.
//
// internal/coopt searches processing knobs (inter-CNT pitch, growth
// quality, alignment) against circuit knobs (drive strength) for the
// cheapest ways to hit a functional-yield target, anchored on one
// measured sweep and rescaled analytically across the knob grid:
//
//	front, err := coopt.Search(ctx, coopt.KitRunner{Kit: kit},
//	    coopt.Spec{Circuit: "fulladder", YieldTarget: 0.99})
//	// front.Candidates: the Pareto-minimal (processing cost, circuit
//	// cost) corners meeting the target; front.CanonicalJSON() is
//	// byte-stable at any worker count, locally or across the fabric.
//
// cmd/cnfetopt runs the same search from the CLI (-coordinator shards
// the measured sweep across a fabric fleet), the daemon serves it at
// POST /v1/coopt, and examples/cooptfront is the smallest end-to-end
// run.
//
// Orchestration runs on the staged pipeline engine (internal/pipeline):
// library construction, characterization sweeps, Monte Carlo immunity
// batches and the flow itself execute as worker-pool stages with
// content-keyed memoization, deterministically — results are independent
// of the worker count.
//
// Stage results persist across processes through the artifact store
// (internal/store): flow.WithStore(dir) — the -store flag on cnfetd,
// cnfetsweep and cnfetdk — layers a content-addressed, disk-backed
// store under the in-memory LRU stage cache, so a daemon restart, a
// repeated CLI invocation or a killed-and-rerun sweep warm-starts from
// the stages an earlier process computed (byte-identically; a full-adder
// flow drops from ~420ms cold to ~1ms warm). -store-budget bounds the
// store's size with oldest-first eviction, GET /v1/cache serves per-tier
// hit/miss/bytes/eviction statistics, and POST /v1/cache/purge drops
// every cached result. See DESIGN.md ("Staged pipeline engine",
// "Design-service API", "Sweep engine", "Sweep fabric", "Variation
// model & co-optimization" and "Artifact store") for the architecture,
// caching keys, cancellation semantics and determinism rules.
//
// Underneath all of it, the SPICE solver core (internal/spice) is built
// for steady-state-zero allocation: Newton scratch, the factor storage
// and the probed waveforms live in a reusable spice.Workspace
// (Circuit.TransientWith; cells.Library.Characterize threads one
// through a whole NLDM grid), the static linear part of the MNA system
// is stamped once per timestep configuration and copy-restored each
// iteration, and the FET linearization uses exact analytic derivatives
// of the logistic×tanh model sharing one exp/tanh with the current
// evaluation. Every system,
// from a cell arc testbench to a multiplier, factorizes through one
// sparse LU kernel: its symbolic plan — row matching, fill-reducing
// ordering, fill pattern, per-element stamp slots, and the numeric
// factorization compiled into a flat update stream — is computed once
// per topology, reused across iterations/timesteps/whole solves and
// across the structure-identical points of an NLDM grid, and shared by
// the lanes of a variation ensemble through spice.Batch. A transient
// records only the signals its caller names in spice.Probes. The kernel
// is held to a dense reference solver (internal/spice/spicetest) within
// 1e-9 V on every registry circuit and every cell arc. The immunity checker
// reuses per-fork tube scratch the same way. See DESIGN.md ("Solver
// core").
//
// The benchmark harness in bench_test.go regenerates each experiment of
// the paper plus sequential-vs-pipelined engine comparisons:
//
//	go test -bench=. -benchmem .
//
// CI gates performance with internal/benchreg: `make bench-check`
// reduces a count=5 run to medians (BENCH_CURRENT.json) and fails on
// >30% median ns/op or allocs/op regression against the committed
// BENCH_BASELINE.json, warning (not silently passing) when a gated
// memory field is missing on either side; `make bench-profile` emits
// cpu/mem pprof artifacts from the spice-dominated benchmarks, and the
// CLIs take -cpuprofile/-memprofile (cnfetsweep, cnfetdk) and -pprof
// (cnfetd, opt-in net/http/pprof for trusted listeners only).
package cnfetdk
