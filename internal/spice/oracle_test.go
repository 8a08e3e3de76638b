package spice_test

import (
	"context"
	"math"
	"testing"

	"cnfetdk/internal/device"
	"cnfetdk/internal/spice"
	"cnfetdk/internal/spice/spicetest"
)

// chain builds a two-inverter characterization-style chain driving a
// load capacitor.
func chain(loadF float64) *spice.Circuit {
	n := device.CMOSFET("mn", device.NType, 1)
	p := device.CMOSFET("mp", device.PType, 1.4)
	c := spice.New()
	c.AddV("vdd", "vdd", "0", spice.DC(device.Vdd))
	c.AddV("vin", "n0", "0", spice.Pulse{V0: 0, V1: device.Vdd, Delay: 20e-12, Rise: 5e-12, Fall: 5e-12, W: 100e-12, Period: 200e-12})
	for i, io := range [][2]string{{"n0", "n1"}, {"n1", "n2"}} {
		name := string(rune('a' + i))
		c.AddFET(name+".p", io[1], io[0], "vdd", p)
		c.AddFET(name+".n", io[1], io[0], "0", n)
	}
	c.AddC("cl", "n2", "0", loadF)
	return c
}

// TestSparseOPMatchesDense holds the kernel's operating point against
// the dense oracle: the sparse factorization must be a reordering of
// the same arithmetic, not a different answer.
func TestSparseOPMatchesDense(t *testing.T) {
	c := chain(1e-15)
	xd, err := spicetest.OP(c)
	if err != nil {
		t.Fatal(err)
	}
	xs, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	if len(xd) != len(xs) {
		t.Fatalf("solution lengths differ: %d vs %d", len(xd), len(xs))
	}
	for i := range xd {
		if d := math.Abs(xd[i] - xs[i]); d > 1e-12 {
			t.Fatalf("unknown %d: dense %v sparse %v (diff %.3e)", i, xd[i], xs[i], d)
		}
	}
}

// TestSparseTransientMatchesDense is the waveform-level parity check on
// a nonlinear transient: every node, every timestep, kernel vs oracle.
func TestSparseTransientMatchesDense(t *testing.T) {
	c := chain(1e-15)
	want, err := spicetest.Transient(c, 200e-12, 400)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Transient(context.Background(), nil, 200e-12, 400, spicetest.AllProbes(c))
	if err != nil {
		t.Fatal(err)
	}
	d, err := spicetest.MaxWaveDiff(got, want)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-9 {
		t.Fatalf("kernel/oracle transients diverge: max |dV| = %.3e, want <= 1e-9", d)
	}
}

// TestFETDerivativeParity pins the kernel's analytic FET derivatives
// against the oracle's central differences over a dense (vgs, vds,
// polarity) grid spanning deep sub-threshold, the logistic transition,
// saturation, and both signs of vds (the source-swap fold). The
// currents must agree exactly (same formula) and every terminal
// derivative to 1e-9.
func TestFETDerivativeParity(t *testing.T) {
	models := []device.FETParams{
		device.CMOSFET("mn", device.NType, 1),
		device.CMOSFET("mp", device.PType, 1.4),
		device.CNFET("cn", device.NType, 9, device.GateWidthNM, device.DefaultFO4()),
		device.CNFET("cp", device.PType, 9, device.GateWidthNM, device.DefaultFO4()),
	}
	const tol = 1e-9
	points := 0
	for _, p := range models {
		for _, vs := range []float64{0, 0.4} {
			for vg := -1.5; vg <= 1.5+1e-12; vg += 0.05 {
				for vd := -1.2; vd <= 1.2+1e-12; vd += 0.05 {
					id, ag, ad, as := spice.FETEval(&p, vg, vd+vs, vs)
					nid, ng, nd, ns := spicetest.FETEval(p, vg, vd+vs, vs)
					if id != nid {
						t.Fatalf("%s: current mismatch at vg=%.2f vd=%.2f vs=%.2f: %g vs %g",
							p.Name, vg, vd+vs, vs, id, nid)
					}
					for _, chk := range []struct {
						name      string
						got, want float64
					}{
						{"dI/dvg", ag, ng}, {"dI/dvd", ad, nd}, {"dI/dvs", as, ns},
					} {
						if math.Abs(chk.got-chk.want) > tol {
							t.Fatalf("%s: %s at vg=%.2f vd=%.2f vs=%.2f: analytic %.12g vs numeric %.12g (|Δ|=%.3g)",
								p.Name, chk.name, vg, vd+vs, vs, chk.got, chk.want, math.Abs(chk.got-chk.want))
						}
					}
					points++
				}
			}
		}
	}
	if points < 10000 {
		t.Fatalf("parity grid too sparse: %d points", points)
	}
}

func TestFETCurrentSymmetry(t *testing.T) {
	p := device.CMOSFET("mn", device.NType, 1)
	// Swapping drain and source negates the current.
	i1 := spicetest.FETCurrent(p, 1.0, 0.7, 0.2)
	i2 := spicetest.FETCurrent(p, 1.0, 0.2, 0.7)
	if math.Abs(i1+i2) > 1e-12 {
		t.Fatalf("S/D symmetry violated: %v vs %v", i1, i2)
	}
	if i1 <= 0 {
		t.Fatal("on-state NFET with vds>0 must conduct positive current")
	}
	// Off state.
	if i := spicetest.FETCurrent(p, 0, 1, 0); math.Abs(i) > p.ISat*1e-3 {
		t.Fatalf("off NFET leaks %v", i)
	}
	// PFET mirror.
	pp := device.CMOSFET("mp", device.PType, 1.4)
	if i := spicetest.FETCurrent(pp, 0, 0.2, 1.0); i >= 0 {
		t.Fatalf("on PFET should source current into drain, got %v", i)
	}
}

func TestFETNumericDerivativesFinite(t *testing.T) {
	p := device.CMOSFET("mn", device.NType, 1)
	for _, v := range []struct{ g, d, s float64 }{
		{0.5, 0.5, 0}, {1, 0.01, 0}, {1, 1, 0}, {0.2, -0.3, 0.1},
	} {
		id, dg, dd, ds := spicetest.FETEval(p, v.g, v.d, v.s)
		for _, x := range []float64{id, dg, dd, ds} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("non-finite eval at %+v", v)
			}
		}
	}
}

// TestLUPivotingZeroDiagonal solves a system whose first pivot is 0: only
// a row swap makes it solvable, and perm must record the swap.
func TestLUPivotingZeroDiagonal(t *testing.T) {
	a := []float64{
		0, 1,
		1, 0,
	}
	b := []float64{2, 3}
	perm := make([]int, 2)
	if err := spicetest.LU(a, b, perm, 2); err != nil {
		t.Fatal(err)
	}
	if math.Abs(b[0]-3) > 1e-12 || math.Abs(b[1]-2) > 1e-12 {
		t.Fatalf("x = %v, want [3 2]", b)
	}
	if perm[0] != 1 {
		t.Fatalf("perm = %v: the zero diagonal must force a pivot swap at step 0", perm)
	}
}

// TestLUNearSingularPivoting checks that partial pivoting keeps a
// badly-scaled system accurate: with a 1e-14 leading entry, eliminating
// without swapping would lose all precision.
func TestLUNearSingularPivoting(t *testing.T) {
	eps := 1e-14
	// [[eps, 1], [1, 1]] x = [1, 2]; exact: x2 = (2eps-1)/(eps-1), x1 = 2-x2.
	a := []float64{
		eps, 1,
		1, 1,
	}
	x2 := (2*eps - 1) / (eps - 1)
	x1 := 2 - x2
	b := []float64{1, 2}
	perm := make([]int, 2)
	if err := spicetest.LU(a, b, perm, 2); err != nil {
		t.Fatal(err)
	}
	if math.Abs(b[0]-x1) > 1e-9 || math.Abs(b[1]-x2) > 1e-9 {
		t.Fatalf("x = %v, want [%v %v]", b, x1, x2)
	}
	if perm[0] != 1 {
		t.Fatalf("perm = %v: the tiny pivot must be swapped away", perm)
	}
}

// TestLUThreeByThree solves a dense 3x3 with a known solution.
func TestLUThreeByThree(t *testing.T) {
	// A = [[2,1,1],[4,-6,0],[-2,7,2]], x = [1,2,3] -> b = A·x.
	a := []float64{
		2, 1, 1,
		4, -6, 0,
		-2, 7, 2,
	}
	b := []float64{7, -8, 18}
	perm := make([]int, 3)
	if err := spicetest.LU(a, b, perm, 3); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1, 2, 3} {
		if math.Abs(b[i]-want) > 1e-12 {
			t.Fatalf("x = %v, want [1 2 3]", b)
		}
	}
}

// TestLUSingular rejects exactly-singular and NaN-poisoned systems.
func TestLUSingular(t *testing.T) {
	cases := []struct {
		name string
		a    []float64
	}{
		{"zero-column", []float64{
			0, 1,
			0, 1,
		}},
		{"dependent-rows", []float64{
			1, 2,
			2, 4,
		}},
		{"nan", []float64{
			math.NaN(), 1,
			1, 1,
		}},
	}
	for _, tc := range cases {
		b := []float64{1, 1}
		perm := make([]int, 2)
		if err := spicetest.LU(append([]float64(nil), tc.a...), b, perm, 2); err == nil {
			t.Fatalf("%s: singular system must fail", tc.name)
		}
	}
}
