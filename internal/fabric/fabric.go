// Package fabric is the distributed sweep fabric: a coordinator shards
// one sweep.Spec across a fleet of cnfetd workers and merges the shard
// results back into the one canonical sweep.Report a single process
// would have produced.
//
// Roles and protocol:
//
//   - Workers are plain cnfetd daemons. They enroll by POSTing their
//     advertised URL to the coordinator's /v1/fabric/workers (cnfetd
//     -join does this on a heartbeat loop) and execute shards over the
//     existing POST /v1/sweeps?stream=ndjson surface — the fabric adds
//     no worker-side endpoint beyond the health/metrics split every
//     daemon now has.
//
//   - The coordinator (cnfetd -coordinator) partitions a spec's
//     deterministic point-index space [0, n) into fixed-size leases.
//     Each lease is dispatched to a live worker as the same spec
//     windowed by Spec.Slice(offset, count), so shard points carry
//     their global indices. Completed points stream back over the lease
//     connection and are forwarded to the client as NDJSON.
//
//   - A lease whose worker dies (transport error, non-2xx, or
//     LeaseTimeout of stream silence) is requeued with exponential
//     backoff and bounded attempts; the failing worker is marked
//     suspect and receives no further leases until it heartbeats again.
//     A lease that exhausts its attempts fails the sweep fast — a
//     poison point must not spin the fleet forever.
//
// Merging is order-independent: every point result is keyed by its
// global index, duplicate deliveries (a retried lease re-executes its
// whole window) are dropped on arrival, and sweep.Assemble rebuilds the
// report from the complete index-ordered set. Summaries, yield curves
// and Pareto fronts are pure functions of (spec, ordered points), so
// the merged report's Canonical bytes are byte-identical to a
// single-process run of the same spec — at any worker count, and across
// mid-sweep worker deaths. Workers sharing one artifact-store directory
// (-store) turn it into the de-facto result bus: a reassigned lease
// warm-starts from the stages its first worker already persisted.
//
// # Quickstart: a two-worker fleet on one machine
//
// Start the coordinator (a cnfetd that also hosts the fabric routes),
// then two workers enrolling against it, all sharing one artifact store:
//
//	cnfetd -addr :8066 -coordinator &
//	cnfetd -addr :8067 -store /tmp/fleet-store -join http://127.0.0.1:8066 &
//	cnfetd -addr :8068 -store /tmp/fleet-store -join http://127.0.0.1:8066 &
//
// Wait until the coordinator's /metrics reports live workers (the
// cnfet_fabric_workers_live gauge is 0 until the fleet has a member),
// then run a sweep through the fabric and scrape the metrics again:
//
//	curl -s http://127.0.0.1:8066/metrics | grep '^cnfet_fabric_workers_live '
//	cnfetsweep -workers http://127.0.0.1:8066 \
//	  -circuits mux2,dec2 -placements rows,shelves -seeds 1,2,3 \
//	  -analyses area,immunity -canonical -o report.json
//	curl -s http://127.0.0.1:8066/metrics | grep cnfet_fabric_
//
// report.json is byte-identical to the same cnfetsweep invocation
// without -workers (one process, no fabric). Killing one worker
// mid-sweep changes nothing but the trace: its lease is reassigned and
// the shared store lets the survivor skip the stages already computed.
package fabric

import (
	"time"

	"cnfetdk/internal/sweep"
)

// Defaults for Options zero values.
const (
	DefaultLeasePoints      = 8
	DefaultMaxAttempts      = 3
	DefaultRetryBackoff     = 250 * time.Millisecond
	DefaultMaxRetryBackoff  = 5 * time.Second
	DefaultLeaseTimeout     = 2 * time.Minute
	DefaultHeartbeatTTL     = 15 * time.Second
	DefaultStallTimeout     = 2 * time.Minute
	DefaultMaxSweepPoints   = 4096
	DefaultPoll             = 100 * time.Millisecond
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 3 * time.Second
)

// JoinRequest is the body a worker POSTs to /v1/fabric/workers — both
// to enroll and as its periodic heartbeat (the call is an idempotent
// upsert keyed by URL).
type JoinRequest struct {
	// URL is the worker's advertised base URL, e.g. "http://10.0.0.7:8065".
	URL string `json:"url"`
}

// JoinResponse acknowledges an enrollment/heartbeat.
type JoinResponse struct {
	ID string `json:"id"`
	// HeartbeatSeconds tells the worker how often to re-POST: the
	// coordinator forgets workers silent longer than its TTL.
	HeartbeatSeconds float64 `json:"heartbeat_seconds"`
}

// WorkerStatus is one row of the coordinator's worker listing.
type WorkerStatus struct {
	URL             string    `json:"url"`
	Alive           bool      `json:"alive"`
	Joined          time.Time `json:"joined"`
	LastSeenSeconds float64   `json:"last_seen_seconds"`
	Points          int64     `json:"points"`
	Leases          int64     `json:"leases"`
	Failures        int64     `json:"failures"`
	// Health is the EWMA lease success score in [0,1] (1 = every recent
	// lease succeeded); new workers start at 1.
	Health float64 `json:"health"`
	// BreakerOpenSeconds is how much longer the worker's circuit breaker
	// holds it out of lease rotation (0 = closed).
	BreakerOpenSeconds float64 `json:"breaker_open_seconds,omitempty"`
	// BreakerTrips counts how many times the breaker has opened.
	BreakerTrips int64 `json:"breaker_trips,omitempty"`
}

// LeaseEvent reports a lease state change on the fabric sweep stream.
type LeaseEvent struct {
	// State is "dispatch", "done", "retry" or "failed".
	State   string `json:"state"`
	Offset  int    `json:"offset"`
	Count   int    `json:"count"`
	Worker  string `json:"worker,omitempty"`
	Attempt int    `json:"attempt"`
	Error   string `json:"error,omitempty"`
}

// StreamLine is one NDJSON line of a fabric sweep response: a completed
// point (with the worker that produced it), a lease event, or the final
// line carrying the merged report.
type StreamLine struct {
	Point  *sweep.PointResult `json:"point,omitempty"`
	Worker string             `json:"worker,omitempty"`
	Lease  *LeaseEvent        `json:"lease,omitempty"`
	Done   bool               `json:"done,omitempty"`
	Error  string             `json:"error,omitempty"`
	Report *sweep.Report      `json:"report,omitempty"`
}
