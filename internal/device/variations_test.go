package device

import (
	"math"
	"testing"
)

func TestVariationsValidate(t *testing.T) {
	cases := []struct {
		v  Variations
		ok bool
	}{
		{Variations{}, true},
		{Variations{CountCV: 0.2, DiameterSigmaNM: 0.05, AlignmentP: 0.1}, true},
		{Variations{AlignmentP: 1}, true},
		{Variations{CountCV: -0.1}, false},
		{Variations{DiameterSigmaNM: -1}, false},
		{Variations{AlignmentP: -0.01}, false},
		{Variations{AlignmentP: 1.01}, false},
	}
	for _, tc := range cases {
		if err := tc.v.Validate(); (err == nil) != tc.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", tc.v, err, tc.ok)
		}
	}
	if !(Variations{}).Zero() {
		t.Error("zero value must report Zero")
	}
	if (Variations{AlignmentP: 0.1}).Zero() {
		t.Error("non-zero alignment must not report Zero")
	}
}

func TestSamplerDeterministicPerLane(t *testing.T) {
	v := Variations{CountCV: 0.2, DiameterSigmaNM: 0.05}
	a := v.Sampler(42, 3)
	b := v.Sampler(42, 3)
	for i := 0; i < 100; i++ {
		da, db := a.Draw(26), b.Draw(26)
		if da != db {
			t.Fatalf("draw %d diverged: %+v vs %+v", i, da, db)
		}
	}
	// Different lanes (and different seeds) decorrelate.
	c := v.Sampler(42, 4)
	d := v.Sampler(43, 3)
	if a.Draw(26) == c.Draw(26) && a.Draw(26) == d.Draw(26) {
		t.Fatal("lanes/seeds produced identical streams")
	}
}

func TestSamplerIdentityDraws(t *testing.T) {
	// A zero model draws identity factors but still advances the stream.
	s := (Variations{}).Sampler(1, 0)
	for i := 0; i < 10; i++ {
		if d := s.Draw(26); d.CountFactor != 1 || d.DriveFactor != 1 || d.VtShiftV != 0 {
			t.Fatalf("zero model drew %+v, want identity", d)
		}
	}
	// Non-tube devices (Tubes == 0, the CMOS reference) get identity
	// draws even under an active model...
	v := Variations{CountCV: 0.5, DiameterSigmaNM: 0.2}
	s = v.Sampler(1, 0)
	if d := s.Draw(0); d.CountFactor != 1 || d.DriveFactor != 1 || d.VtShiftV != 0 {
		t.Fatalf("non-tube device drew %+v, want identity", d)
	}
	// ...and consume the same two normals, keeping downstream devices'
	// draws aligned with a stream that saw a tube device there.
	s2 := v.Sampler(1, 0)
	s2.Draw(26)
	if a, b := s.Draw(26), s2.Draw(26); a != b {
		t.Fatalf("stream misaligned after a non-tube draw: %+v vs %+v", a, b)
	}
}

func TestDrawBounds(t *testing.T) {
	v := Variations{CountCV: 1.5, DiameterSigmaNM: 3}
	s := v.Sampler(7, 0)
	for i := 0; i < 2000; i++ {
		d := s.Draw(8)
		if d.CountFactor < 1.0/8-1e-15 {
			t.Fatalf("count factor %g under the one-tube floor", d.CountFactor)
		}
		if d.DriveFactor < 0.05-1e-15 {
			t.Fatalf("drive factor %g under the floor", d.DriveFactor)
		}
	}
}

func TestDrawApply(t *testing.T) {
	p := FETParams{ISat: 1e-5, Vt: 0.3}
	DeviceDraw{CountFactor: 0.5, DriveFactor: 0.8, VtShiftV: 0.1}.Apply(&p)
	if got := p.ISat; math.Abs(got-0.4e-5) > 1e-20 {
		t.Fatalf("ISat = %g, want 4e-6", got)
	}
	if p.Vt != 0.4 {
		t.Fatalf("Vt = %g, want 0.4", p.Vt)
	}
	// Threshold clamps at zero.
	p = FETParams{ISat: 1e-5, Vt: 0.3}
	DeviceDraw{CountFactor: 1, DriveFactor: 1, VtShiftV: -0.5}.Apply(&p)
	if p.Vt != 0 {
		t.Fatalf("Vt = %g, want clamped to 0", p.Vt)
	}
}

func TestCountYieldMonotone(t *testing.T) {
	v := Variations{CountCV: 0.3}
	if y := v.CountYield(1); y != phi(0) {
		t.Fatalf("1-tube count yield = %g, want Phi(0) = 0.5", y)
	}
	prev := 0.0
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		y := v.CountYield(n)
		if y <= prev || y > 1 {
			t.Fatalf("CountYield(%d) = %g, want monotone increasing in (prev=%g, 1]", n, y, prev)
		}
		prev = y
	}
	if y := (Variations{}).CountYield(1); y != 1 {
		t.Fatalf("zero-CV count yield = %g, want 1", y)
	}
	// Tighter growth control yields more.
	if (Variations{CountCV: 0.1}).CountYield(8) <= (Variations{CountCV: 0.4}).CountYield(8) {
		t.Fatal("lower CV must raise count yield")
	}
}

func TestAlignYield(t *testing.T) {
	v := Variations{AlignmentP: 0.1}
	// Immune layouts (breakP 0) are insensitive to alignment — the
	// paper's point.
	if y := v.AlignYield(26, 0); y != 1 {
		t.Fatalf("immune-layout align yield = %g, want exactly 1", y)
	}
	want := math.Pow(1-0.1*0.5, 26)
	if y := v.AlignYield(26, 0.5); math.Abs(y-want) > 1e-15 {
		t.Fatalf("align yield = %g, want %g", y, want)
	}
	// More tubes, more exposure.
	if v.AlignYield(52, 0.5) >= v.AlignYield(26, 0.5) {
		t.Fatal("align yield must fall with tube count")
	}
}

func TestDelayUnitsAtReducesToDelayUnits(t *testing.T) {
	p := DefaultFO4()
	for _, n := range []int{1, 5, 26, 52} {
		want := p.DelayUnits(n)
		got := p.DelayUnitsAt(float64(n), Pitch(n), 1)
		if math.Abs(got-want) > 1e-12*want {
			t.Errorf("DelayUnitsAt(%d, Pitch, 1) = %g, want DelayUnits = %g", n, got, want)
		}
		wantE := p.EnergyUnits(n)
		gotE := p.EnergyUnitsAt(float64(n), Pitch(n))
		if math.Abs(gotE-wantE) > 1e-12*wantE {
			t.Errorf("EnergyUnitsAt(%d, Pitch) = %g, want EnergyUnits = %g", n, gotE, wantE)
		}
	}
	// Wider devices drive harder (contact resistance amortizes).
	if p.DelayUnitsAt(26, 5, 2) >= p.DelayUnitsAt(26, 5, 1) {
		t.Fatal("doubling device width must not slow the stage")
	}
}
