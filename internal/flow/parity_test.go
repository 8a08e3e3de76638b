package flow

import (
	"context"
	"sort"
	"testing"

	"cnfetdk/internal/device"
	"cnfetdk/internal/spice"
	"cnfetdk/internal/spice/spicetest"
)

// parityBench builds the registry circuit's delay testbench — the same
// construction runDelay uses: the instantiated netlist, sorted static DC
// sources, and the pulse source from the circuit's default stimulus.
func parityBench(t *testing.T, k *Kit, c *Circuit) *spice.Circuit {
	t.Helper()
	nl, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	ckt, _, err := k.BuildCircuit(k.CNFET, nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	period := 4000e-12
	statics := make([]string, 0, len(c.Stimulus.Static))
	for in := range c.Stimulus.Static {
		statics = append(statics, in)
	}
	sort.Strings(statics)
	for _, in := range statics {
		level := 0.0
		if c.Stimulus.Static[in] {
			level = device.Vdd
		}
		ckt.AddV("vin."+in, in, "0", spice.DC(level))
	}
	ckt.AddV("vin."+c.Stimulus.Pulse, c.Stimulus.Pulse, "0", spice.Pulse{
		V0: 0, V1: device.Vdd, Delay: period / 4,
		Rise: 5e-12, Fall: 5e-12, W: period / 2, Period: period,
	})
	return ckt
}

// TestSparseDenseParityAllRegistryCircuits runs every registered
// benchmark's delay testbench through the compiled sparse kernel and
// through the dense oracle, and requires waveform agreement within
// 1e-9 V at every node and timestep. The step counts are scaled down
// per circuit (the full 8000-step dense mult4 transient alone takes
// ~10s); parity is a per-step property, so a shorter window checks the
// same arithmetic.
func TestSparseDenseParityAllRegistryCircuits(t *testing.T) {
	if testing.Short() {
		t.Skip("transient-heavy")
	}
	k := kit(t)
	steps := map[string]int{"fulladder": 400, "rca4": 200, "rca8": 100, "mult4": 50}
	for _, c := range Circuits() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			n := steps[c.Name]
			if n == 0 {
				n = 100
			}
			period := 4000e-12 * float64(n) / 8000
			want, err := spicetest.Transient(parityBench(t, k, c), period, n)
			if err != nil {
				t.Fatalf("dense: %v", err)
			}
			ckt := parityBench(t, k, c)
			got, err := ckt.Transient(context.Background(), nil, period, n, spicetest.AllProbes(ckt))
			if err != nil {
				t.Fatalf("sparse: %v", err)
			}
			worst, err := spicetest.MaxWaveDiff(got, want)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d unknowns, max |dV| = %.3e over %d steps", c.Name, len(want.V)+len(want.IV), worst, n)
			if worst > 1e-9 {
				t.Fatalf("sparse/dense diverge on %s: max |dV| = %.3e, want <= 1e-9", c.Name, worst)
			}
		})
	}
}
