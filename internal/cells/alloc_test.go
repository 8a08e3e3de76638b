//go:build !race

package cells

import (
	"context"
	"testing"

	"cnfetdk/internal/device"
	"cnfetdk/internal/rules"
	"cnfetdk/internal/spice"
)

// maxEnsembleRunAllocs is the worker pool's fixed bookkeeping per Run
// (pipeline.MapCtx's error slice and closures); nothing may be
// allocated per lane or per step.
const maxEnsembleRunAllocs = 3

// TestEnsembleSteadyStateZeroAlloc pins the variation-ensemble hot path:
// after the first Run warms every lane's workspace, a one-worker re-run
// — redrawing every device, re-simulating every lane through the shared
// plan batch, and re-measuring — allocates zero objects per lane and per
// step: only the pool's constant, identical at every ensemble size and
// step count, and with lanes that a stop test ends early. This is what
// makes per-sweep-point ensembles affordable.
// (Skipped under -race: the race runtime adds its own bookkeeping
// allocations.)
func TestEnsembleSteadyStateZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("transient-heavy")
	}
	l := NewLibrary(rules.CNFET)
	proto, _, err := l.ArcCircuit(l.MustGet("NAND2_1X"), "A", l.ReferenceLoad(), DefaultSlewS)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(r *spice.Result) (float64, error) { return r.PropDelay("in", "out", device.Vdd) }
	var want float64
	for k, tc := range []struct {
		samples, steps int
		stop           func(*spice.Result) bool
	}{{2, ArcSteps, nil}, {4, ArcSteps, nil}, {2, ArcSteps / 2, nil}, {4, ArcSteps, propDelayDecided}} {
		e, err := NewEnsemble(proto, device.Variations{CountCV: 0.2, DiameterSigmaNM: 0.05}, tc.samples)
		if err != nil {
			t.Fatal(err)
		}
		probes := spice.Probes{Nodes: arcNodes, Stop: tc.stop}
		run := func() {
			if err := e.Run(context.Background(), 1, 7, ArcPeriod, tc.steps, probes, measure); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm: lanes size their workspaces and waveform storage once
		avg := testing.AllocsPerRun(5, run)
		t.Logf("%d samples × %d steps (stop test set: %v): %.1f allocs/Run", tc.samples, tc.steps, tc.stop != nil, avg)
		if k == 0 {
			want = avg
		}
		if avg != want || avg > maxEnsembleRunAllocs {
			t.Fatalf("%d samples × %d steps: steady-state Run allocates %.1f objects, want the same constant as %d samples × %d steps (%.1f, at most %d)",
				tc.samples, tc.steps, avg, 2, ArcSteps, want, maxEnsembleRunAllocs)
		}
	}
}
