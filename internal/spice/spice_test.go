package spice

import (
	"math"
	"testing"

	"cnfetdk/internal/device"
)

func opts() Options { return DefaultOptions() }

func TestVoltageDividerOP(t *testing.T) {
	c := New()
	c.AddV("vin", "in", "0", DC(2.0))
	c.AddR("r1", "in", "mid", 1e3)
	c.AddR("r2", "mid", "0", 3e3)
	x, err := c.OP(opts())
	if err != nil {
		t.Fatal(err)
	}
	vmid := x[c.Node("mid")-1]
	if math.Abs(vmid-1.5) > 1e-9 {
		t.Fatalf("divider mid = %v, want 1.5", vmid)
	}
}

func TestSeriesVSources(t *testing.T) {
	c := New()
	c.AddV("v1", "a", "0", DC(1))
	c.AddV("v2", "b", "a", DC(2))
	c.AddR("r", "b", "0", 1e3)
	x, err := c.OP(opts())
	if err != nil {
		t.Fatal(err)
	}
	if vb := x[c.Node("b")-1]; math.Abs(vb-3) > 1e-9 {
		t.Fatalf("vb = %v, want 3", vb)
	}
	// Branch current through r = 3mA; the MNA branch variable is the
	// current flowing P->N inside the source, so a delivering source
	// reads negative.
	if i := x[c.NodeCount()-1+1]; math.Abs(i-(-3e-3)) > 1e-9 {
		t.Fatalf("v2 branch current = %v, want -3mA", i)
	}
}

func TestCurrentSource(t *testing.T) {
	c := New()
	c.AddI("i1", "0", "n", DC(1e-3))
	c.AddR("r", "n", "0", 2e3)
	x, err := c.OP(opts())
	if err != nil {
		t.Fatal(err)
	}
	if vn := x[c.Node("n")-1]; math.Abs(vn-2.0) > 1e-9 {
		t.Fatalf("vn = %v, want 2.0", vn)
	}
}

func TestRCChargeCurve(t *testing.T) {
	// Step into an RC: v(t) = 1 - exp(-t/RC), RC = 1µs.
	c := New()
	c.AddV("vs", "in", "0", Pulse{V0: 0, V1: 1, Delay: 0, Rise: 1e-12, Fall: 1e-12, W: 1, Period: 2})
	c.AddR("r", "in", "out", 1e3)
	c.AddC("c", "out", "0", 1e-9)
	res, err := c.Transient(5e-6, 5000, opts(), Probes{Nodes: []string{"out"}})
	if err != nil {
		t.Fatal(err)
	}
	w, err := res.Wave("out")
	if err != nil {
		t.Fatal(err)
	}
	for _, chk := range []struct{ t, want float64 }{
		{1e-6, 1 - math.Exp(-1)},
		{2e-6, 1 - math.Exp(-2)},
		{4e-6, 1 - math.Exp(-4)},
	} {
		k := int(chk.t / 5e-6 * 5000)
		if math.Abs(w[k]-chk.want) > 0.01 {
			t.Fatalf("v(%.0gs) = %.4f, want %.4f", chk.t, w[k], chk.want)
		}
	}
}

func TestRCEnergyConservation(t *testing.T) {
	// Charging C through R from a step: the source delivers CV² total;
	// half is stored, half dissipated.
	c := New()
	vs := c.AddV("vs", "in", "0", Pulse{V0: 0, V1: 1, Rise: 1e-12, Fall: 1e-12, W: 1, Period: 2})
	c.AddR("r", "in", "out", 1e3)
	c.AddC("c", "out", "0", 1e-9)
	res, err := c.Transient(20e-6, 4000, opts(), Probes{Sources: []int{vs}})
	if err != nil {
		t.Fatal(err)
	}
	e, err := res.SupplyEnergy(vs, 0, 20e-6)
	if err != nil {
		t.Fatal(err)
	}
	want := 1e-9 * 1 * 1 // CV²
	if math.Abs(e-want)/want > 0.02 {
		t.Fatalf("source energy = %v, want %v", e, want)
	}
}

func TestCrossTimeInterpolation(t *testing.T) {
	c := New()
	c.AddV("vs", "in", "0", PWL{T: []float64{0, 1e-9}, V: []float64{0, 1}})
	c.AddR("r", "in", "0", 1e3)
	res, err := c.Transient(1e-9, 100, opts(), Probes{Nodes: []string{"in"}})
	if err != nil {
		t.Fatal(err)
	}
	tc, err := res.CrossTime("in", 0.5, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tc-0.5e-9) > 1e-11 {
		t.Fatalf("cross time = %v, want 0.5ns", tc)
	}
	if _, err := res.CrossTime("in", 0.5, false, 0); err == nil {
		t.Fatal("no falling crossing should exist")
	}
}

func nfet(t *testing.T) device.FETParams {
	t.Helper()
	return device.CMOSFET("mn", device.NType, 1)
}

func pfet(t *testing.T) device.FETParams {
	t.Helper()
	return device.CMOSFET("mp", device.PType, 1.4)
}

// addInverter wires a CMOS inverter between in and out.
func addInverter(c *Circuit, name, in, out string, n, p device.FETParams) {
	c.AddFET(name+".p", out, in, "vdd", p)
	c.AddFET(name+".n", out, in, "0", n)
}

func TestInverterDCTransfer(t *testing.T) {
	for _, vin := range []float64{0, 0.2, 0.8, 1.0} {
		c := New()
		c.AddV("vdd", "vdd", "0", DC(device.Vdd))
		c.AddV("vin", "in", "0", DC(vin))
		addInverter(c, "inv", "in", "out", nfet(t), pfet(t))
		x, err := c.OP(opts())
		if err != nil {
			t.Fatalf("vin=%v: %v", vin, err)
		}
		vout := x[c.Node("out")-1]
		if vin < 0.3 && vout < 0.9 {
			t.Fatalf("vin=%v: vout=%v, want high", vin, vout)
		}
		if vin > 0.7 && vout > 0.1 {
			t.Fatalf("vin=%v: vout=%v, want low", vin, vout)
		}
	}
}

func TestInverterChainTransient(t *testing.T) {
	// A 3-stage chain inverts and settles rail to rail.
	c := New()
	c.AddV("vdd", "vdd", "0", DC(device.Vdd))
	c.AddV("vin", "n0", "0", Pulse{V0: 0, V1: 1, Delay: 20e-12, Rise: 5e-12, Fall: 5e-12, W: 1, Period: 2})
	addInverter(c, "i1", "n0", "n1", nfet(t), pfet(t))
	addInverter(c, "i2", "n1", "n2", nfet(t), pfet(t))
	addInverter(c, "i3", "n2", "n3", nfet(t), pfet(t))
	res, err := c.Transient(600e-12, 3000, opts(), Probes{Nodes: []string{"n2", "n3"}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Settles("n3", 0, 0.05) {
		v, _ := res.Final("n3")
		t.Fatalf("n3 settled at %v, want 0 (odd inversion of high input)", v)
	}
	if !res.Settles("n2", 1, 0.05) {
		t.Fatal("n2 should settle high")
	}
}

func TestCMOSFO4DelayMatchesAnchor(t *testing.T) {
	// Five-stage FO4 chain (each stage drives 4 copies); the 3rd stage
	// delay should be near the 25ps anchor. This validates that the
	// smooth I-V model + driveFitFactor reproduce the analytic RC model.
	d := measureFO4(t, func(name, in, out string, c *Circuit) {
		addInverter(c, name, in, out, nfet(t), pfet(t))
	})
	if d < 20e-12 || d > 30e-12 {
		t.Fatalf("CMOS FO4 = %.2fps, want 25ps ±20%%", d*1e12)
	}
}

// measureFO4 builds a 5-stage chain with fan-out-4 loading and measures
// the 3rd stage propagation delay.
func measureFO4(t *testing.T, addInv func(name, in, out string, c *Circuit)) float64 {
	t.Helper()
	c := New()
	c.AddV("vdd", "vdd", "0", DC(device.Vdd))
	c.AddV("vin", "n0", "0", Pulse{
		V0: 0, V1: 1, Delay: 100e-12, Rise: 10e-12, Fall: 10e-12, W: 500e-12, Period: 1000e-12,
	})
	for st := 1; st <= 5; st++ {
		in := nodeN(st - 1)
		out := nodeN(st)
		addInv("s"+string(rune('0'+st)), in, out, c)
		// FO4: three extra dummy inverters loading each internal node.
		if st < 5 {
			for k := 0; k < 3; k++ {
				dummy := out + "d" + string(rune('a'+k))
				addInv("l"+string(rune('0'+st))+string(rune('a'+k)), out, dummy, c)
			}
		}
	}
	res, err := c.Transient(1000e-12, 4000, opts(), Probes{Nodes: []string{nodeN(2), nodeN(3)}})
	if err != nil {
		t.Fatal(err)
	}
	d, err := res.PropDelay(nodeN(2), nodeN(3), device.Vdd)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func nodeN(i int) string { return "n" + string(rune('0'+i)) }

func TestCNFETFasterThanCMOS(t *testing.T) {
	p := device.DefaultFO4()
	nOpt := p.OptimalN(60)
	cn := func(name, in, out string, c *Circuit) {
		np := device.CNFET(name+".n", device.NType, nOpt, device.GateWidthNM, p)
		pp := device.CNFET(name+".p", device.PType, nOpt, device.GateWidthNM, p)
		c.AddFET(name+".p", out, in, "vdd", pp)
		c.AddFET(name+".n", out, in, "0", np)
	}
	dCN := measureFO4(t, cn)
	dCM := measureFO4(t, func(name, in, out string, c *Circuit) {
		addInverter(c, name, in, out, nfet(t), pfet(t))
	})
	gain := dCM / dCN
	// The transient-level gain should track the analytic 4.2× within 25%
	// (the smooth I-V shape vs pure RC introduces bounded deviation).
	if gain < 3.1 || gain > 5.3 {
		t.Fatalf("spice FO4 gain = %.2f, analytic anchor 4.2", gain)
	}
}

func TestSingularCircuitError(t *testing.T) {
	c := New()
	c.AddC("c", "a", "b", 1e-12) // floating caps only: singular in DC
	if _, err := c.OP(opts()); err == nil {
		t.Fatal("floating circuit should fail")
	}
}
