package cells

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"cnfetdk/internal/device"
	"cnfetdk/internal/rules"
	"cnfetdk/internal/spice"
)

// arcEnsemble prepares a variation ensemble over a cell arc's
// reference-point testbench (input A, 5 ps edge, reference load).
func arcEnsemble(t *testing.T, l *Library, cell string, v device.Variations, samples int) *Ensemble {
	t.Helper()
	proto, _, err := l.ArcCircuit(l.MustGet(cell), "A", l.ReferenceLoad(), DefaultSlewS)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEnsemble(proto, v, samples)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runArc runs an arc ensemble's full transient and measures each lane's
// in→out propagation delay.
func runArc(e *Ensemble, workers int, seed int64) error {
	return e.Run(context.Background(), workers, seed, ArcPeriod, ArcSteps, spice.Probes{Nodes: arcNodes},
		func(r *spice.Result) (float64, error) { return r.PropDelay("in", "out", device.Vdd) })
}

// propDelayDecided is the arc testbench's stop test (probes arcNodes):
// true once every crossing PropDelay("in", "out") reads is recorded.
// PropDelay reads the input's falling edge, which starts at three
// quarters of ArcPeriod, so before that it reads nothing.
func propDelayDecided(r *spice.Result) bool {
	if r.Times[len(r.Times)-1] < 3*ArcPeriod/4 {
		return false
	}
	mid := device.Vdd / 2
	in, out := r.V[0], r.V[1]
	tInRise, ok := r.Cross(in, mid, true, 0)
	if !ok {
		return false
	}
	if _, ok := r.Cross(out, mid, false, tInRise); !ok {
		return false
	}
	tInFall, ok := r.Cross(in, mid, false, tInRise)
	if !ok {
		return false
	}
	_, ok = r.Cross(out, mid, true, tInFall)
	return ok
}

// TestEnsembleStoppedLanesMatchWholeWindow: lanes that stop as soon as
// their delay is decided stop at different steps, each trimming its own
// Result, and measure the whole window's delays bit for bit at one
// worker and at four.
func TestEnsembleStoppedLanesMatchWholeWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("transient-heavy")
	}
	l := NewLibrary(rules.CNFET)
	v := device.Variations{CountCV: 0.2, DiameterSigmaNM: 0.05}
	whole := arcEnsemble(t, l, "NAND2_1X", v, 8)
	if err := runArc(whole, 1, 3); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		e := arcEnsemble(t, l, "NAND2_1X", v, 8)
		var mu sync.Mutex
		samples := map[int]bool{}
		err := e.Run(context.Background(), workers, 3, ArcPeriod, ArcSteps, spice.Probes{Nodes: arcNodes, Stop: propDelayDecided},
			func(r *spice.Result) (float64, error) {
				mu.Lock()
				samples[len(r.Times)] = true
				mu.Unlock()
				return r.PropDelay("in", "out", device.Vdd)
			})
		if err != nil {
			t.Fatal(err)
		}
		for i := range whole.values {
			if math.Float64bits(e.values[i]) != math.Float64bits(whole.values[i]) {
				t.Fatalf("%d workers: lane %d stopped measures %v, whole window %v", workers, i, e.values[i], whole.values[i])
			}
		}
		if samples[ArcSteps+1] || len(samples) < 2 {
			t.Fatalf("%d workers: lanes recorded %v samples, want early stops at different steps", workers, samples)
		}
	}
}

// cancelAt is a 0 V waveform that cancels a context once a transient
// evaluates it at time at or later: a cancellation inside a lane.
type cancelAt struct {
	at     float64
	cancel context.CancelFunc
}

func (w cancelAt) At(t float64) float64 {
	if t >= w.at {
		w.cancel()
	}
	return 0
}

// TestEnsembleRunStopsWhenCancelled: a context cancelled while a lane
// solves stops that lane's transient, so the lane is never measured and
// Run's error wraps the context's.
func TestEnsembleRunStopsWhenCancelled(t *testing.T) {
	l := NewLibrary(rules.CNFET)
	proto, _, err := l.ArcCircuit(l.MustGet("INV_1X"), "A", l.ReferenceLoad(), DefaultSlewS)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	proto.AddV("vc", "c", "0", cancelAt{at: ArcPeriod / 2, cancel: cancel})
	proto.AddR("rc", "c", "0", 1e3)
	e, err := NewEnsemble(proto, device.Variations{CountCV: 0.2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	measured := false
	err = e.Run(ctx, 1, 1, ArcPeriod, ArcSteps, spice.Probes{Nodes: arcNodes}, func(*spice.Result) (float64, error) {
		measured = true
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) || measured {
		t.Fatalf("err = %v, measured %v; want the lane stopped with context.Canceled", err, measured)
	}
}

// TestEnsembleDeterministicAcrossRebuilds: a seed-7 Run gives the same
// lanes on a fresh ensemble as on a rebuilt one, and as on a warm one
// that last ran seed 8 — its lanes' devices were redrawn, so nothing the
// solver memoized for them may leak into the next Run.
func TestEnsembleDeterministicAcrossRebuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("transient-heavy")
	}
	l := NewLibrary(rules.CNFET)
	v := device.Variations{CountCV: 0.2, DiameterSigmaNM: 0.05}

	run := func(e *Ensemble, seed int64) []float64 {
		if err := runArc(e, 1, seed); err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), e.values...)
	}
	d1 := run(arcEnsemble(t, l, "NAND2_1X", v, 4), 7)
	d2 := run(arcEnsemble(t, l, "NAND2_1X", v, 4), 7)
	warm := arcEnsemble(t, l, "NAND2_1X", v, 4)
	run(warm, 8)
	d3 := run(warm, 7)
	for i := range d1 {
		if math.Float64bits(d1[i]) != math.Float64bits(d2[i]) {
			t.Fatalf("lane %d not reproducible: %g vs %g", i, d1[i], d2[i])
		}
		if math.Float64bits(d1[i]) != math.Float64bits(d3[i]) {
			t.Fatalf("lane %d after a seed-8 Run: %g, fresh %g", i, d3[i], d1[i])
		}
	}
	// The spread is real: independent lanes differ under a 20% count CV.
	spread := false
	for i := 1; i < len(d1); i++ {
		if d1[i] != d1[0] {
			spread = true
		}
	}
	if !spread {
		t.Fatal("all lanes measured the same delay under an active variation model")
	}
}

// TestEnsembleDeterministicAcrossWorkers pins the reproducibility
// contract of Run's lane fan-out: lane i's draws depend only on (seed,
// i), and lanes share one immutable plan, so one and four workers give
// bit-identical lanes and statistics.
func TestEnsembleDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("transient-heavy")
	}
	l := NewLibrary(rules.CNFET)
	v := device.Variations{CountCV: 0.2, DiameterSigmaNM: 0.05}
	seq := arcEnsemble(t, l, "NAND2_1X", v, 6)
	par := arcEnsemble(t, l, "NAND2_1X", v, 6)
	if err := runArc(seq, 1, 42); err != nil {
		t.Fatal(err)
	}
	if err := runArc(par, 4, 42); err != nil {
		t.Fatal(err)
	}
	for i := range seq.values {
		if math.Float64bits(seq.values[i]) != math.Float64bits(par.values[i]) {
			t.Fatalf("lane %d differs across worker counts: %v vs %v", i, seq.values[i], par.values[i])
		}
	}
	if seq.Stats() != par.Stats() {
		t.Fatalf("stats differ across worker counts: %+v vs %+v", seq.Stats(), par.Stats())
	}
}

func TestEnsembleZeroVariationMatchesNominal(t *testing.T) {
	if testing.Short() {
		t.Skip("transient-heavy")
	}
	l := NewLibrary(rules.CNFET)
	nominal := refPoint(t, l, l.MustGet("INV_1X"), "A")
	e := arcEnsemble(t, l, "INV_1X", device.Variations{}, 3)
	if err := runArc(e, 2, 1); err != nil {
		t.Fatal(err)
	}
	for i, d := range e.values {
		if d != nominal.DelayS {
			t.Fatalf("zero-variation lane %d delay %g != nominal %g", i, d, nominal.DelayS)
		}
	}
	st := e.Stats()
	if st.Samples != 3 || st.SigmaS != 0 || st.MeanS != nominal.DelayS {
		t.Fatalf("zero-variation stats %+v, want sigma 0 around the nominal delay", st)
	}
}

// TestEnsembleIdentityDrawsMatchNominal: an active variation model
// still draws identity factors on devices without tubes (the CMOS
// reference), so every lane reproduces the nominal delay bit for bit.
func TestEnsembleIdentityDrawsMatchNominal(t *testing.T) {
	if testing.Short() {
		t.Skip("transient-heavy")
	}
	l := NewLibrary(rules.CMOS)
	nominal := refPoint(t, l, l.MustGet("NAND2_1X"), "A")
	e := arcEnsemble(t, l, "NAND2_1X", device.Variations{CountCV: 0.3, DiameterSigmaNM: 0.1}, 3)
	if err := runArc(e, 2, 5); err != nil {
		t.Fatal(err)
	}
	for i, d := range e.values {
		if math.Float64bits(d) != math.Float64bits(nominal.DelayS) {
			t.Fatalf("identity-draw lane %d delay %g != nominal %g", i, d, nominal.DelayS)
		}
	}
	if st := e.Stats(); st.SigmaS != 0 || st.MeanS != nominal.DelayS {
		t.Fatalf("identity-draw stats %+v, want sigma 0 around the nominal delay", st)
	}
}

func TestEnsembleStats(t *testing.T) {
	st := summarize([]float64{1, 2, 3, 4})
	if st.Samples != 4 || st.MinS != 1 || st.MaxS != 4 || st.MeanS != 2.5 {
		t.Fatalf("summarize = %+v", st)
	}
	if math.Abs(st.SigmaS-math.Sqrt(1.25)) > 1e-15 {
		t.Fatalf("sigma = %g, want sqrt(1.25)", st.SigmaS)
	}
	if z := summarize(nil); z.Samples != 0 || z.SigmaS != 0 {
		t.Fatalf("empty summarize = %+v", z)
	}
}

// TestEnsembleRunStats: a Run under a count CV yields a real
// distribution summary.
func TestEnsembleRunStats(t *testing.T) {
	if testing.Short() {
		t.Skip("transient-heavy")
	}
	l := NewLibrary(rules.CNFET)
	e := arcEnsemble(t, l, "INV_1X", device.Variations{CountCV: 0.2}, 4)
	if err := runArc(e, 0, 3); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Samples != 4 || st.MeanS <= 0 || st.SigmaS <= 0 {
		t.Fatalf("delay stats %+v, want 4 samples with positive mean and sigma", st)
	}
	if st.MinS > st.MeanS || st.MeanS > st.MaxS {
		t.Fatalf("delay stats %+v violate min <= mean <= max", st)
	}
}

// TestNewEnsembleValidation covers the argument checks.
func TestNewEnsembleValidation(t *testing.T) {
	l := NewLibrary(rules.CNFET)
	proto, _, err := l.ArcCircuit(l.MustGet("INV_1X"), "A", l.ReferenceLoad(), DefaultSlewS)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEnsemble(proto, device.Variations{}, 0); err == nil {
		t.Fatal("samples = 0 accepted")
	}
	if _, err := NewEnsemble(proto, device.Variations{CountCV: -0.1}, 2); err == nil {
		t.Fatal("negative count CV accepted")
	}
}

func TestDeviceTubes(t *testing.T) {
	cn := NewLibrary(rules.CNFET)
	c := cn.MustGet("NAND2_1X")
	tubes := cn.DeviceTubes(c)
	if want := len(c.Gate.PUN.Devices) + len(c.Gate.PDN.Devices); len(tubes) != want {
		t.Fatalf("DeviceTubes returned %d entries for %d devices", len(tubes), want)
	}
	for i, n := range tubes {
		if n < 1 {
			t.Fatalf("CNFET device %d reports %d tubes, want >= 1", i, n)
		}
	}
	// The CMOS reference has no tubes — variation draws must be
	// identity there (see device.Sampler).
	cm := NewLibrary(rules.CMOS)
	for i, n := range cm.DeviceTubes(cm.MustGet("NAND2_1X")) {
		if n != 0 {
			t.Fatalf("CMOS device %d reports %d tubes, want 0", i, n)
		}
	}
}
