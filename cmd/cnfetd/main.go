// Command cnfetd serves the design kit over HTTP: one shared kit (both
// technology libraries, one singleflight memo cache) executes
// flow.Request jobs and sweep.Spec batches concurrently for many clients.
//
// Usage:
//
//	cnfetd                       # listen on :8065
//	cnfetd -addr 127.0.0.1:9000  # explicit listen address
//	cnfetd -addr 127.0.0.1:0 -addr-file /tmp/cnfetd.addr  # free port, written to a file
//	cnfetd -j 4                  # bound the worker pools: a job's stages, a sweep's points
//	cnfetd -store .cnfet-store   # persist stage results across restarts
//	cnfetd -store .cnfet-store -store-budget 268435456  # cap it at 256MiB
//	cnfetd -pprof                # expose /debug/pprof/ (trusted listeners only)
//	cnfetd -join http://coord:8066            # enroll as a sweep-fabric worker
//	cnfetd -coordinator                       # also run a fabric coordinator
//
// Routes:
//
//	POST   /v1/jobs        — run a design job (flow.Request JSON body)
//	POST   /v1/sweeps      — start a parameter sweep (sweep.Spec JSON
//	                         body; async by default, ?stream=ndjson
//	                         streams completed points)
//	GET    /v1/sweeps      — list tracked sweeps
//	GET    /v1/sweeps/{id} — poll progress / fetch the final report
//	DELETE /v1/sweeps/{id} — cancel a running sweep
//	POST   /v1/coopt       — run a co-optimization search (coopt.Spec
//	                         JSON body), answer its canonical front
//	GET    /v1/circuits    — list the named-circuit registry
//	GET    /v1/cache       — artifact-store statistics (per-tier
//	                         hits/misses/bytes/evictions)
//	POST   /v1/cache/purge — drop every cached stage result
//	GET    /healthz        — liveness + cache statistics (legacy combined)
//	GET    /livez          — liveness probe
//	GET    /readyz        — readiness probe (503 while enrolling with a
//	                         fabric coordinator or draining)
//	GET    /metrics        — Prometheus-style metrics (worker role; with
//	                         -coordinator the fabric metrics append here)
//	POST   /v1/fabric/workers — with -coordinator: worker enrollment
//	GET    /v1/fabric/workers — with -coordinator: registry listing
//	POST   /v1/fabric/sweeps  — with -coordinator: a fleet-sharded sweep
//
// With -join, the daemon enrolls as a sweep-fabric worker: it
// heartbeats the coordinator and reports unready until enrollment
// succeeds. With -coordinator, the same service mux also serves the
// fabric coordinator's routes (service.WithCoordinator), behind the
// daemon's panic recovery and error envelope, and shards fabric sweeps
// across its registered workers.
//
// With -store, stage results are written through to a content-addressed
// on-disk artifact store and served back after a restart: a daemon
// bounced mid-traffic warm-starts instead of recomputing its working
// set, and several daemons (or the CLIs) may share one store directory.
//
// A spec says what to compute, not how: sweep points (a fabric lease's
// too) run -j at a time, every spec is admitted within -sweep-points,
// and one that carries workers or max_points is a 400 bad_json.
//
// Example:
//
//	curl -s localhost:8065/v1/jobs -d '{"circuit":"fulladder","analyses":["area","delay"]}'
//	curl -s localhost:8065/v1/sweeps -d '{"base":{"techs":["cnfet"],"analyses":["area"]},
//	  "axes":{"circuits":["mux2","dec2"],"placements":["rows","shelves"]}}'
//
// SIGINT/SIGTERM drain in-flight jobs (bounded by -grace) before exit;
// a dropped client connection cancels its job mid-flow, and expiring the
// grace cancels background sweeps too.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cnfetdk/internal/fabric"
	"cnfetdk/internal/fault"
	"cnfetdk/internal/flow"
	"cnfetdk/internal/service"
)

func main() {
	addr := flag.String("addr", ":8065", "listen address (port 0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using port 0)")
	workers := flag.Int("j", 0, "worker bound of every pool — a job's stages, a sweep's points (0 = one per CPU, 1 = sequential)")
	grace := flag.Duration("grace", 30*time.Second, "shutdown grace period for in-flight jobs")
	cacheLimit := flag.Int("cache-entries", 4096, "in-memory stage-cache entry bound, LRU (0 = unbounded)")
	storeDir := flag.String("store", "", "persistent artifact-store directory (empty = in-memory only; results there survive restarts)")
	storeBudget := flag.Int64("store-budget", 0, "artifact-store size budget in bytes, oldest entries evicted past it (0 = unbounded)")
	sweepPoints := flag.Int("sweep-points", 1024, "point limit of one sweep, co-optimization search or (with -coordinator) fabric sweep")
	sweepStore := flag.Int("sweep-store", 64, "how many sweeps the status store retains")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (profiling aid only — do not enable on a daemon reachable by untrusted clients)")
	stageTimeout := flag.Duration("stage-timeout", 0, "per-stage watchdog: kill any flow stage running longer than this (0 = unbounded; requests cannot override it)")
	faultsPath := flag.String("faults", "", "fault-injection plan JSON file (chaos-testing aid; see internal/fault)")
	joinURL := flag.String("join", "", "sweep-fabric coordinator URL to enroll with as a worker (heartbeats until shutdown)")
	advertise := flag.String("advertise", "", "base URL workers advertise to the coordinator (default: http://<bound address>, 127.0.0.1 for wildcard binds)")
	coordinator := flag.Bool("coordinator", false, "also run a sweep-fabric coordinator (mounts /v1/fabric/ and appends fabric metrics to /metrics)")
	leasePoints := flag.Int("lease-points", fabric.DefaultLeasePoints, "coordinator: points per lease")
	maxAttempts := flag.Int("max-attempts", fabric.DefaultMaxAttempts, "coordinator: dispatch attempts per lease before a sweep fails")
	heartbeatTTL := flag.Duration("heartbeat-ttl", fabric.DefaultHeartbeatTTL, "coordinator: worker liveness window past its last heartbeat")
	flag.Parse()

	log.SetPrefix("cnfetd: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	t0 := time.Now()
	kitOpts := []flow.Option{flow.WithWorkers(*workers), flow.WithCacheLimit(*cacheLimit)}
	if *storeDir != "" {
		kitOpts = append(kitOpts, flow.WithStore(*storeDir), flow.WithStoreBudget(*storeBudget))
	}
	if *stageTimeout > 0 {
		kitOpts = append(kitOpts, flow.WithStageTimeout(*stageTimeout))
	}
	if *faultsPath != "" {
		blob, err := os.ReadFile(*faultsPath)
		if err != nil {
			log.Fatalf("-faults: %v", err)
		}
		plan, err := fault.ParsePlan(blob)
		if err != nil {
			log.Fatalf("-faults: %v", err)
		}
		inj, err := fault.New(plan)
		if err != nil {
			log.Fatalf("-faults: %v", err)
		}
		kitOpts = append(kitOpts, flow.WithFaults(inj))
		log.Printf("fault injection armed: plan %q, seed %d, %d rules", plan.Name, plan.Seed, len(plan.Rules))
	}
	kit, err := flow.New(ctx, kitOpts...)
	if err != nil {
		log.Fatalf("building kit: %v", err)
	}
	log.Printf("kit ready in %s (%d CNFET + %d CMOS cells, %d registry circuits)",
		time.Since(t0).Round(time.Millisecond),
		len(kit.CNFET.Names()), len(kit.CMOS.Names()), len(flow.Circuits()))
	if *storeDir != "" {
		if st := kit.CacheStats(); st.Disk != nil {
			log.Printf("artifact store %s: %d entries, %d bytes resident", *storeDir, st.Disk.Entries, st.Disk.Bytes)
		}
	}

	// Jobs and background sweeps get their own lifetime, detached from
	// the signal context, so a SIGTERM lets in-flight work finish within
	// the grace period; only when the grace expires is it cancelled
	// mid-flow.
	jobCtx, cancelJobs := context.WithCancel(context.Background())
	defer cancelJobs()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			log.Fatalf("writing -addr-file: %v", err)
		}
	}

	svcOpts := []service.ServerOption{
		service.WithBaseContext(jobCtx),
		service.WithSweepLimits(*sweepPoints, *sweepStore),
		service.WithLogf(log.Printf),
	}
	if *coordinator {
		svcOpts = append(svcOpts, service.WithCoordinator(fabric.New(fabric.Options{
			LeasePoints:    *leasePoints,
			MaxAttempts:    *maxAttempts,
			HeartbeatTTL:   *heartbeatTTL,
			MaxSweepPoints: *sweepPoints,
			Logf:           log.Printf,
		})))
		log.Printf("fabric coordinator enabled at /v1/fabric/ (lease %d points, %d attempts)", *leasePoints, *maxAttempts)
	}
	svc := service.NewServer(kit, svcOpts...)
	var handler http.Handler = svc

	if *joinURL != "" {
		self := *advertise
		if self == "" {
			host, port, err := net.SplitHostPort(bound)
			if err != nil {
				log.Fatalf("deriving advertise URL from %q: %v", bound, err)
			}
			if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
				host = "127.0.0.1"
			}
			self = "http://" + net.JoinHostPort(host, port)
		}
		// Unready until the first enrollment lands; heartbeat failures
		// flip it back so the coordinator-facing readiness is honest.
		svc.SetReady(false)
		go fabric.JoinLoop(jobCtx, nil, *joinURL, self, func(joined bool, err error) {
			svc.SetReady(joined)
			if joined {
				log.Printf("enrolled with coordinator %s as %s", *joinURL, self)
			} else {
				log.Printf("coordinator %s unreachable (will retry): %v", *joinURL, err)
			}
		})
	}

	if *pprofOn {
		// Opt-in profiling endpoints on the service mux (the import does
		// not expose them by itself — cnfetd never serves the default
		// mux). pprof leaks operational detail and can be driven hard;
		// enable it only where the listener is trusted.
		inner := handler
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		mux.Handle("/", inner)
		handler = mux
		log.Printf("pprof endpoints enabled at /debug/pprof/ — not for untrusted exposure")
	}
	srv := &http.Server{
		Handler:     handler,
		BaseContext: func(net.Listener) context.Context { return jobCtx },
		// Slow-client bounds; no WriteTimeout because legitimate jobs
		// (liberty characterization, streamed sweeps) can run long
		// before or while responding.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	done := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", bound)
		done <- srv.Serve(ln)
	}()

	select {
	case <-ctx.Done():
		log.Printf("signal received, draining for up to %s", *grace)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("grace expired, cancelling in-flight jobs: %v", err)
		}
		// Background (async) sweeps outlive their HTTP requests and
		// Shutdown does not wait for them — give them (and any streamed
		// sweeps or coopt searches Shutdown was cut short on) the rest
		// of the same grace window before cutting them off.
		if !svc.Drain(shutdownCtx) {
			log.Printf("grace expired, cancelling remaining sweeps and searches")
		}
		cancelJobs()
		srv.Close()
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("serve: %v", err)
		}
	}
	fmt.Fprintln(os.Stderr, "cnfetd: bye")
}
