package spicetest

import (
	"context"
	"math"
	"testing"

	"cnfetdk/internal/device"
	"cnfetdk/internal/spice"
)

// TestTransientRCMatchesAnalytic holds the oracle itself to closed
// form: a step into an RC charges as 1 - exp(-t/RC), and the source
// branch current is -(1 - v)/R.
func TestTransientRCMatchesAnalytic(t *testing.T) {
	c := spice.New()
	c.AddV("vs", "in", "0", spice.Pulse{V0: 0, V1: 1, Rise: 1e-12, Fall: 1e-12, W: 1, Period: 2})
	c.AddR("r", "in", "out", 1e3)
	c.AddC("c", "out", "0", 1e-9)
	w, err := Transient(c, 5e-6, 5000)
	if err != nil {
		t.Fatal(err)
	}
	out := c.Node("out") - 1
	for _, k := range []int{1000, 2000, 4000} {
		want := 1 - math.Exp(-w.Times[k]/1e-6)
		if d := math.Abs(w.V[out][k] - want); d > 1e-3 {
			t.Fatalf("v(%.0e s) = %.5f, want %.5f", w.Times[k], w.V[out][k], want)
		}
		if i := w.IV[0][k]; math.Abs(i+(1-w.V[out][k])/1e3) > 1e-9 {
			t.Fatalf("source current %.4e at %.0e s, want %.4e", i, w.Times[k], -(1-w.V[out][k])/1e3)
		}
	}
}

// TestOPInverterRails checks the oracle's FET linearization at DC: a
// CMOS inverter drives its output to the opposite rail.
func TestOPInverterRails(t *testing.T) {
	for _, vin := range []float64{0, device.Vdd} {
		c := spice.New()
		c.AddV("vdd", "vdd", "0", spice.DC(device.Vdd))
		c.AddV("vin", "in", "0", spice.DC(vin))
		c.AddFET("mp", "out", "in", "vdd", device.CMOSFET("mp", device.PType, 1.4))
		c.AddFET("mn", "out", "in", "0", device.CMOSFET("mn", device.NType, 1))
		x, err := OP(c)
		if err != nil {
			t.Fatal(err)
		}
		want := device.Vdd - vin
		if v := x[c.Node("out")-1]; math.Abs(v-want) > 0.05 {
			t.Fatalf("vin=%v: out = %v, want %v", vin, v, want)
		}
	}
}

// TestMaxWaveDiffRejectsShapeMismatch: comparing a probe subset against
// the full oracle set is a test bug, reported rather than passed.
func TestMaxWaveDiffRejectsShapeMismatch(t *testing.T) {
	c := spice.New()
	c.AddV("vs", "in", "0", spice.DC(1))
	c.AddR("r", "in", "out", 1e3)
	c.AddC("c", "out", "0", 1e-12)
	want, err := Transient(c, 1e-9, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Transient(context.Background(), nil, 1e-9, 10, spice.Probes{Nodes: []string{"out"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MaxWaveDiff(got, want); err == nil {
		t.Fatal("one probed node compared against two oracle nodes")
	}
	all, err := c.Transient(context.Background(), nil, 1e-9, 10, AllProbes(c))
	if err != nil {
		t.Fatal(err)
	}
	if d, err := MaxWaveDiff(all, want); err != nil || d > 1e-12 {
		t.Fatalf("linear RC: max |dV| = %v, err %v", d, err)
	}
}
