//go:build !race

package flow

import (
	"context"
	"testing"

	"cnfetdk/internal/spice"
)

// TestDelayStopTestAllocatesNothing: the delay transient asks its stop
// test on every step, so the test and the walk over the arcs allocate
// nothing, whether the delay is decided or a crossing is still missing.
// (Skipped under -race: the race runtime adds its own bookkeeping
// allocations.)
func TestDelayStopTestAllocatesNothing(t *testing.T) {
	k := kit(t)
	ckt, _, arcs := delayBench(t, k, "fulladder", k.CNFET, nil)
	r, err := ckt.Transient(context.Background(), nil, delayWindow, delaySteps, stimProbes(arcs))
	if err != nil {
		t.Fatal(err)
	}
	n := len(r.Times)
	for _, tc := range []struct {
		r       *spice.Result
		decided bool
	}{{r, true}, {samplesOf(r, n-1), false}} {
		if _, _, ok := arcs.delay(tc.r); ok != tc.decided || arcs.decided(tc.r) != tc.decided {
			t.Fatalf("%d samples: decided %v, want %v", len(tc.r.Times), ok, tc.decided)
		}
		if avg := testing.AllocsPerRun(100, func() {
			arcs.decided(tc.r)
			arcs.delay(tc.r)
		}); avg != 0 {
			t.Fatalf("%d samples: the stop test allocates %.1f objects per call, want 0", len(tc.r.Times), avg)
		}
	}
}
