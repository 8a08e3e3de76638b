//go:build !race

package spice

import (
	"context"
	"strconv"
	"testing"

	"cnfetdk/internal/device"
)

// TestTransientSteadyStateZeroAlloc is the allocation-regression guard on
// the solver hot path: once a workspace is warm — plan, factor storage,
// scratch and probed waveforms all sized by the first run — a whole
// transient, every Newton iteration, compiled refactorization and probe
// record inside it, must allocate nothing; so must a transient whose
// stop test ends it once n2 has risen. (Skipped under -race: the race
// runtime adds bookkeeping allocations that are not the solver's.)
func TestTransientSteadyStateZeroAlloc(t *testing.T) {
	c := New()
	c.AddV("vdd", "vdd", "0", DC(device.Vdd))
	c.AddV("vin", "n0", "0", Pulse{V0: 0, V1: 1, Delay: 20e-12, Rise: 5e-12, Fall: 5e-12, W: 1, Period: 2})
	addInverter(c, "i1", "n0", "n1", nfet(t), pfet(t))
	addInverter(c, "i2", "n1", "n2", nfet(t), pfet(t))
	c.AddC("cl", "n2", "0", 1e-15)

	n2Rose := func(r *Result) bool {
		_, ok := r.Cross(r.V[1], 0.5, true, 0)
		return ok
	}
	for _, stop := range []func(*Result) bool{nil, n2Rose} {
		ws := &Workspace{}
		probes := Probes{Nodes: []string{"n0", "n2"}, Sources: []int{0}, Stop: stop}
		samples := 0
		run := func() {
			r, err := c.Transient(context.Background(), ws, 200e-12, 400, probes)
			if err != nil {
				t.Fatal(err)
			}
			samples = len(r.Times)
		}
		run() // warm the workspace: scratch and waveforms size themselves once
		if avg := testing.AllocsPerRun(10, run); avg != 0 {
			t.Fatalf("steady-state transient of %d samples allocates %.1f allocs/op, want 0", samples, avg)
		}
		if stopped := samples <= 400; stopped != (stop != nil) {
			t.Fatalf("stop test set %v, but the transient recorded %d of 401 samples", stop != nil, samples)
		}
	}
}

// TestTransientSparseSteadyStateZeroAlloc pins the same guarantee on a
// plan-shared batch lane of a system well past the size of a cell
// testbench (a 40-stage chain, 43 nodes + 2 sources), where the fill
// and the compiled update stream are long, with and without a stop test
// that ends the run half way.
func TestTransientSparseSteadyStateZeroAlloc(t *testing.T) {
	c := New()
	c.AddV("vdd", "vdd", "0", DC(device.Vdd))
	c.AddV("vin", "s0", "0", Pulse{V0: 0, V1: 1, Delay: 20e-12, Rise: 5e-12, Fall: 5e-12, W: 1, Period: 2})
	for i := 0; i < 40; i++ {
		addInverter(c, "i", "s"+strconv.Itoa(i), "s"+strconv.Itoa(i+1), nfet(t), pfet(t))
	}
	b, err := NewBatch(1, c)
	if err != nil {
		t.Fatal(err)
	}
	halfway := func(r *Result) bool { return len(r.Times) > 50 }
	for _, stop := range []func(*Result) bool{nil, halfway} {
		probes := Probes{Nodes: []string{"s0", "s40"}, Stop: stop}
		run := func() {
			if _, err := c.Transient(context.Background(), b.Lane(0), 200e-12, 100, probes); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if avg := testing.AllocsPerRun(5, run); avg != 0 {
			t.Fatalf("batch-lane steady-state transient (stop test set: %v) allocates %.1f allocs/op, want 0", stop != nil, avg)
		}
	}
}

// TestOPSteadyStateAllocsBounded pins the one-shot OP path: it may
// allocate its workspace and symbolic plan but nothing per Newton
// iteration, so its count must not exceed that of planning and sizing
// the workspace alone.
func TestOPSteadyStateAllocsBounded(t *testing.T) {
	c := New()
	c.AddV("vdd", "vdd", "0", DC(device.Vdd))
	c.AddV("vin", "in", "0", DC(0.5))
	addInverter(c, "inv", "in", "out", nfet(t), pfet(t))
	setup := testing.AllocsPerRun(10, func() {
		var ws Workspace
		if err := ws.st.init(c); err != nil {
			t.Fatal(err)
		}
	})
	avg := testing.AllocsPerRun(10, func() {
		if _, err := c.OP(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > setup {
		t.Fatalf("OP allocates %.1f allocs/op against %.1f to plan and size its workspace; the Newton loop must not allocate per iteration", avg, setup)
	}
}
