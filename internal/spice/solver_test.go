package spice

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"cnfetdk/internal/device"
)

// TestFETDerivativeSumRule checks the structural identity the Norton
// stamp relies on: dI/dvg + dI/dvd + dI/dvs = 0 (shifting all terminals
// together changes nothing).
func TestFETDerivativeSumRule(t *testing.T) {
	p := device.CMOSFET("mn", device.NType, 1)
	for vg := -1.0; vg <= 1.0; vg += 0.13 {
		for vd := -1.0; vd <= 1.0; vd += 0.17 {
			_, ag, ad, as := fetEval(&p, vg, vd, 0.1)
			if s := ag + ad + as; math.Abs(s) > 1e-18 {
				t.Fatalf("terminal derivatives must sum to 0, got %g at vg=%.2f vd=%.2f", s, vg, vd)
			}
		}
	}
}

// TestFETBypassFires proves the exact device bypass does work: over the
// inverter-chain transient every FET of every Newton iteration is either
// evaluated or reused, and most are reused — once a stage settles its
// terminal voltages repeat bit for bit.
func TestFETBypassFires(t *testing.T) {
	c := inverterChain3(t)
	ws := &Workspace{}
	if _, err := c.Transient(context.Background(), ws, 600e-12, 3000, Probes{Nodes: []string{"n3"}}); err != nil {
		t.Fatal(err)
	}
	s := &ws.st
	if got, want := s.evals+s.reuses, s.iters*len(c.FETs); got != want {
		t.Fatalf("evals %d + reuses %d = %d, want iterations %d × %d FETs = %d",
			s.evals, s.reuses, got, s.iters, len(c.FETs), want)
	}
	if s.reuses == 0 {
		t.Fatal("no FET linearization was reused")
	}
	// 38.8% when the bypass landed (3622 iterations, 8430 of 21732
	// linearizations reused).
	const floor = 0.35
	if share := float64(s.reuses) / float64(s.evals+s.reuses); share < floor {
		t.Fatalf("reuse share %.3f is below the %.2f floor (evals %d, reuses %d)", share, floor, s.evals, s.reuses)
	}
}

// cancelAt is a 0 V waveform that cancels a context once the transient
// evaluates it at time at or later: a cancellation at a known step.
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

// TestTransientStopsWhenCancelled: a context cancelled mid-run stops the
// transient at the next timestep, half way through its window, with an
// error wrapping the context's.
func TestTransientStopsWhenCancelled(t *testing.T) {
	const tstop, steps = 600e-12, 3000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := inverterChain3(t)
	c.AddV("vc", "c", "0", cancelAt{at: tstop / 2, cancel: cancel})
	c.AddR("rc", "c", "0", 1e3)
	ws := &Workspace{}
	_, err := c.Transient(ctx, ws, tstop, steps, Probes{Nodes: []string{"n3"}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want one wrapping context.Canceled", err)
	}
	if got := ws.st.t; math.Abs(got-tstop/2) > tstop/steps {
		t.Fatalf("transient stopped at t=%.4g, want within a step of %.4g", got, tstop/2)
	}
}

// pastDeadline is a context whose deadline has passed but whose Done
// channel never closes: a watchdog whose timer has not fired yet.
type pastDeadline struct{ context.Context }

func (pastDeadline) Deadline() (time.Time, bool) { return time.Unix(0, 0), true }

// TestTransientStopsPastItsDeadline: the transient reads its context's
// deadline off the clock, so it stops within deadlineEvery steps of a
// deadline whose timer has not fired, with an error wrapping
// context.DeadlineExceeded.
func TestTransientStopsPastItsDeadline(t *testing.T) {
	const tstop, steps = 600e-12, 3000
	ws := &Workspace{}
	_, err := inverterChain3(t).Transient(pastDeadline{context.Background()}, ws, tstop, steps, Probes{Nodes: []string{"n3"}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want one wrapping context.DeadlineExceeded", err)
	}
	if got, limit := ws.st.t, deadlineEvery*tstop/steps; got >= limit {
		t.Fatalf("transient stopped at t=%.4g, want before step %d (t=%.4g)", got, deadlineEvery, limit)
	}
}

// n3Fell is a stop test on inverterChain3 probed with allProbes: true
// once the output n3 has crossed mid-rail falling.
func n3Fell(r *Result) bool {
	w, err := r.Wave("n3")
	if err != nil {
		panic(err)
	}
	_, ok := r.Cross(w, 0.5, false, 0)
	return ok
}

// prefix is r cut to its first n samples.
func prefix(r *Result, n int) *Result {
	p := *r
	p.Times = r.Times[:n]
	p.V, p.IV = make([][]float64, len(r.V)), make([][]float64, len(r.IV))
	for i, w := range r.V {
		p.V[i] = w[:n]
	}
	for i, w := range r.IV {
		p.IV[i] = w[:n]
	}
	return &p
}

// TestTransientStopTest: a stop test is asked after every step with
// exactly the samples recorded so far, and the transient returns at the
// first step where it reports true. The stopped Result holds samples
// 0..k, bit for bit the whole window's first k+1; a nil test runs the
// whole window.
func TestTransientStopTest(t *testing.T) {
	const tstop, steps = 600e-12, 3000
	c := inverterChain3(t)
	full, err := c.Transient(context.Background(), nil, tstop, steps, allProbes(c))
	if err != nil {
		t.Fatal(err)
	}
	for _, waves := range [][][]float64{{full.Times}, full.V, full.IV} {
		for _, w := range waves {
			if len(w) != steps+1 {
				t.Fatalf("a nil stop test recorded %d samples, want %d", len(w), steps+1)
			}
		}
	}
	probes := allProbes(c)
	asked := 0
	probes.Stop = func(r *Result) bool {
		asked++
		for _, waves := range [][][]float64{{r.Times}, r.V, r.IV} {
			for _, w := range waves {
				if len(w) != asked+1 {
					t.Fatalf("asked after step %d with a %d-sample record", asked, len(w))
				}
			}
		}
		return n3Fell(r)
	}
	got, err := c.Transient(context.Background(), nil, tstop, steps, probes)
	if err != nil {
		t.Fatal(err)
	}
	k := len(got.Times) - 1
	if k != asked || k >= steps || !n3Fell(prefix(full, k+1)) || n3Fell(prefix(full, k)) {
		t.Fatalf("stopped after step %d of %d (asked %d times), want the first step on which n3 has fallen", k, steps, asked)
	}
	want := prefix(full, k+1)
	for i := range want.Times {
		if math.Float64bits(got.Times[i]) != math.Float64bits(want.Times[i]) {
			t.Fatalf("Times[%d]: stopped %g vs whole window %g", i, got.Times[i], want.Times[i])
		}
	}
	sameWaves(t, got, want)
}

// TestWorkspaceReusedAfterStop: a run stopped early leaves its
// workspace's waveform storage longer than its Result; the next run on
// that workspace still records the whole window, equal to a fresh one.
func TestWorkspaceReusedAfterStop(t *testing.T) {
	const tstop, steps = 600e-12, 3000
	c := inverterChain3(t)
	want, err := c.Transient(context.Background(), nil, tstop, steps, allProbes(c))
	if err != nil {
		t.Fatal(err)
	}
	ws := &Workspace{}
	stopped := allProbes(c)
	stopped.Stop = n3Fell
	r, err := c.Transient(context.Background(), ws, tstop, steps, stopped)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Times) > steps {
		t.Fatalf("the stop test never fired: %d samples", len(r.Times))
	}
	got, err := c.Transient(context.Background(), ws, tstop, steps, allProbes(c))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Times) != steps+1 {
		t.Fatalf("reused workspace recorded %d samples, want %d", len(got.Times), steps+1)
	}
	sameWaves(t, got, want)
}

// allProbes names every non-ground node and every voltage source of c,
// for tests that compare whole waveform sets.
func allProbes(c *Circuit) Probes {
	var p Probes
	for i := 1; i < c.NodeCount(); i++ {
		p.Nodes = append(p.Nodes, c.NodeName(i))
	}
	for v := range c.VSources {
		p.Sources = append(p.Sources, v)
	}
	return p
}

// TestTransientWithReuseMatchesOneShot runs the same transient through a
// reused workspace and through the one-shot path; the waveforms must be
// identical. The workspace is warmed twice first: on a different circuit
// shape, so reuse has to resize and re-zero correctly, and on the same
// topology with 2× nfet width and the supply off. Every solve's first
// Newton iteration starts from all-zero voltages, the very terminal bits
// the unpowered solve left each FET at, so a memoized linearization that
// outlived its solve would be stamped with the wider device's values.
func TestTransientWithReuseMatchesOneShot(t *testing.T) {
	build := func(nw, vdd float64) *Circuit {
		n := device.CMOSFET("mn", device.NType, nw)
		c := New()
		c.AddV("vdd", "vdd", "0", DC(vdd))
		c.AddV("vin", "n0", "0", Pulse{V0: 0, V1: vdd, Delay: 20e-12, Rise: 5e-12, Fall: 5e-12, W: 1, Period: 2})
		addInverter(c, "i1", "n0", "n1", n, pfet(t))
		addInverter(c, "i2", "n1", "n2", n, pfet(t))
		c.AddC("cl", "n2", "0", 1e-15)
		return c
	}
	want, err := build(1, device.Vdd).Transient(context.Background(), nil, 400e-12, 800, allProbes(build(1, device.Vdd)))
	if err != nil {
		t.Fatal(err)
	}
	big := New()
	big.AddV("vdd", "vdd", "0", DC(device.Vdd))
	big.AddV("vin", "n0", "0", Pulse{V0: 0, V1: 1, Rise: 5e-12, Fall: 5e-12, W: 1, Period: 2})
	for i := 0; i < 4; i++ {
		addInverter(big, "b", nodeN(i), nodeN(i+1), nfet(t), pfet(t))
	}
	for _, warm := range []*Circuit{big, build(2, 0)} {
		ws := &Workspace{}
		if _, err := warm.Transient(context.Background(), ws, 200e-12, 500, allProbes(warm)); err != nil {
			t.Fatal(err)
		}
		got, err := build(1, device.Vdd).Transient(context.Background(), ws, 400e-12, 800, allProbes(build(1, device.Vdd)))
		if err != nil {
			t.Fatal(err)
		}
		sameWaves(t, got, want)
	}
}

// sameWaves fails unless got and want hold bit-identical waveforms.
func sameWaves(t *testing.T, got, want *Result) {
	t.Helper()
	if len(got.Times) != len(want.Times) {
		t.Fatalf("sample counts differ: %d vs %d", len(got.Times), len(want.Times))
	}
	for i := range want.V {
		for k := range want.V[i] {
			if math.Float64bits(got.V[i][k]) != math.Float64bits(want.V[i][k]) {
				t.Fatalf("V[%d][%d]: reused workspace %g vs fresh %g", i, k, got.V[i][k], want.V[i][k])
			}
		}
	}
	for i := range want.IV {
		for k := range want.IV[i] {
			if math.Float64bits(got.IV[i][k]) != math.Float64bits(want.IV[i][k]) {
				t.Fatalf("IV[%d][%d]: reused workspace %g vs fresh %g", i, k, got.IV[i][k], want.IV[i][k])
			}
		}
	}
}

// TestTransientResultPreSized verifies Transient sizes the waveforms to
// steps+1 up front instead of growing them by appends.
func TestTransientResultPreSized(t *testing.T) {
	c := New()
	c.AddV("vs", "in", "0", DC(1))
	c.AddR("r", "in", "out", 1e3)
	c.AddC("c", "out", "0", 1e-12)
	res, err := c.Transient(context.Background(), nil, 1e-9, 250, allProbes(c))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times) != 251 || cap(res.Times) != 251 {
		t.Fatalf("Times len/cap = %d/%d, want exactly steps+1", len(res.Times), cap(res.Times))
	}
	for i := range res.V {
		if len(res.V[i]) != 251 {
			t.Fatalf("V[%d] has %d samples", i, len(res.V[i]))
		}
	}
}

// TestProbesRecordOnlyNamedSignals pins the recording contract: a
// transient stores exactly the probed waveforms, in probe order, with
// ground recorded as zeros; unprobed signals are errors, not silent
// zeros; and an unknown probe fails before any solving.
func TestProbesRecordOnlyNamedSignals(t *testing.T) {
	c := New()
	vs := c.AddV("vs", "in", "0", DC(1))
	c.AddR("r", "in", "out", 1e3)
	c.AddC("c", "out", "0", 1e-12)
	res, err := c.Transient(context.Background(), nil, 1e-9, 50, Probes{Nodes: []string{"out", "0"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.V) != 2 || len(res.IV) != 0 {
		t.Fatalf("recorded %d voltages and %d currents, want 2 and 0", len(res.V), len(res.IV))
	}
	out, err := res.Wave("out")
	if err != nil || &out[0] != &res.V[0][0] {
		t.Fatalf("Wave(out) = %v, %v; want the first probe's waveform", out, err)
	}
	if v := res.V[1][50]; v != 0 {
		t.Fatalf("ground probe recorded %v", v)
	}
	if _, err := res.Wave("in"); err == nil || !strings.Contains(err.Error(), "not probed") {
		t.Fatalf("unprobed node: err = %v", err)
	}
	if _, err := res.SupplyEnergy(vs, 0, 1e-9); err == nil {
		t.Fatal("energy of an unprobed source must fail")
	}
	if _, err := c.Transient(context.Background(), nil, 1e-9, 50, Probes{Nodes: []string{"nope"}}); err == nil {
		t.Fatal("probe of an unknown node accepted")
	}
	if _, err := c.Transient(context.Background(), nil, 1e-9, 50, Probes{Sources: []int{1}}); err == nil {
		t.Fatal("probe of an unknown source accepted")
	}
}
