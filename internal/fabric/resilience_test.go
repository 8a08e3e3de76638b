package fabric

import (
	"reflect"
	"testing"
	"time"
)

// TestLeaseBackoffDeterministicSeed pins the full-jitter backoff: a
// fixed BackoffSeed replays the exact delay sequence, a different seed
// diverges, and every delay stays inside the capped exponential window.
func TestLeaseBackoffDeterministicSeed(t *testing.T) {
	const base, cap = 10 * time.Millisecond, 80 * time.Millisecond
	mk := func(seed int64) []time.Duration {
		c := New(Options{RetryBackoff: base, MaxRetryBackoff: cap, BackoffSeed: seed})
		out := make([]time.Duration, 0, 8)
		for attempt := 1; attempt <= 8; attempt++ {
			out = append(out, c.leaseBackoff(attempt))
		}
		return out
	}
	a, b := mk(42), mk(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	if reflect.DeepEqual(a, mk(43)) {
		t.Fatal("different seeds produced the same schedule")
	}
	for i, d := range a {
		window := base << i
		if window > cap {
			window = cap
		}
		if d < 0 || d >= window {
			t.Fatalf("attempt %d backoff %v outside [0, %v)", i+1, d, window)
		}
	}
}

// TestLeaseBackoffOverflowSafe drives the attempt counter high enough
// to overflow a naive shift; the window must stay at the cap.
func TestLeaseBackoffOverflowSafe(t *testing.T) {
	c := New(Options{RetryBackoff: time.Second, MaxRetryBackoff: 2 * time.Second, BackoffSeed: 1})
	for _, attempt := range []int{40, 70, 1000} {
		if d := c.leaseBackoff(attempt); d < 0 || d >= 2*time.Second {
			t.Fatalf("attempt %d backoff %v outside [0, 2s)", attempt, d)
		}
	}
}

// TestBreakerOpensEscalatesAndCloses walks the circuit breaker through
// its whole life: closed under the threshold, open at it, escalating on
// further failures, half-open after the cooldown, closed on success.
func TestBreakerOpensEscalatesAndCloses(t *testing.T) {
	c := New(Options{BreakerThreshold: 2, BreakerCooldown: 40 * time.Millisecond, HeartbeatTTL: time.Minute})
	if _, err := c.Join("http://w:1", true); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	w := c.workers["http://w:1"]
	c.mu.Unlock()

	if !c.leasable(w) {
		t.Fatal("fresh worker not leasable")
	}
	c.recordLease(w, false)
	if !c.leasable(w) {
		t.Fatal("breaker opened under the threshold")
	}
	c.recordLease(w, false)
	if c.leasable(w) {
		t.Fatal("breaker did not open at the threshold")
	}
	if !c.alive(w) {
		t.Fatal("breaker-open worker must still count as alive (it heartbeats)")
	}
	c.mu.Lock()
	firstHold := time.Until(w.openUntil)
	c.mu.Unlock()
	c.recordLease(w, false) // escalation: hold doubles
	c.mu.Lock()
	secondHold := time.Until(w.openUntil)
	trips, health := w.trips, w.health
	c.mu.Unlock()
	if secondHold <= firstHold {
		t.Fatalf("escalated hold %v not longer than first %v", secondHold, firstHold)
	}
	if trips != 2 {
		t.Fatalf("trips = %d, want 2", trips)
	}
	if health >= 1 {
		t.Fatalf("health = %v after three failures, want < 1", health)
	}

	rows := c.Workers()
	if len(rows) != 1 || rows[0].BreakerOpenSeconds <= 0 || rows[0].BreakerTrips != 2 || rows[0].Health >= 1 {
		t.Fatalf("WorkerStatus missing breaker state: %+v", rows[0])
	}

	time.Sleep(secondHold + 20*time.Millisecond)
	if !c.leasable(w) {
		t.Fatal("breaker did not half-open after the cooldown")
	}
	c.recordLease(w, true)
	c.mu.Lock()
	closedFails, closedOpen := w.consecFails, w.openUntil
	c.mu.Unlock()
	if closedFails != 0 || !closedOpen.IsZero() {
		t.Fatalf("success did not close the breaker: fails=%d open=%v", closedFails, closedOpen)
	}
}

// TestBreakerDisabled pins the negative-threshold escape hatch.
func TestBreakerDisabled(t *testing.T) {
	c := New(Options{BreakerThreshold: -1, HeartbeatTTL: time.Minute})
	if _, err := c.Join("http://w:1", true); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	w := c.workers["http://w:1"]
	c.mu.Unlock()
	for i := 0; i < 10; i++ {
		c.recordLease(w, false)
	}
	if !c.leasable(w) {
		t.Fatal("disabled breaker opened anyway")
	}
}
