package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLambdaConversions(t *testing.T) {
	if Lambda(3) != 12 {
		t.Fatalf("Lambda(3) = %d, want 12", Lambda(3))
	}
	if got := Lambda(5).Lambdas(); got != 5 {
		t.Fatalf("Lambdas = %v, want 5", got)
	}
	if got := Lambda(2).Nanometers(32.5); got != 65 {
		t.Fatalf("Nanometers = %v, want 65", got)
	}
}

func TestRectNormalization(t *testing.T) {
	r := R(10, 20, 0, 5)
	if r.Min != Pt(0, 5) || r.Max != Pt(10, 20) {
		t.Fatalf("R did not normalise corners: %v", r)
	}
	if r.W() != 10 || r.H() != 15 {
		t.Fatalf("W/H = %d/%d, want 10/15", r.W(), r.H())
	}
	if r.Area() != 150 {
		t.Fatalf("Area = %d, want 150", r.Area())
	}
}

func TestRectAreaLambda2(t *testing.T) {
	r := R(0, 0, Lambda(4), Lambda(3))
	if got := r.AreaLambda2(); got != 12 {
		t.Fatalf("AreaLambda2 = %v, want 12", got)
	}
}

func TestRectOverlaps(t *testing.T) {
	a := R(0, 0, 10, 10)
	b := R(5, 5, 20, 8)
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Fatal("Overlaps should be true both ways")
	}
	c := R(10, 0, 15, 10) // abutting, shares an edge only
	if a.Overlaps(c) {
		t.Fatal("abutting rects must not overlap")
	}
}

func TestLineBasics(t *testing.T) {
	l := Ln(0, 0, 3, 4)
	mid := l.At(0.5)
	if mid.X != 1.5 || mid.Y != 2 {
		t.Fatalf("At(0.5) = %v", mid)
	}
	horiz := Ln(0, 1, 10, 1)
	if got := horiz.AngleDeg(); got != 0 {
		t.Fatalf("AngleDeg = %v, want 0", got)
	}
	diag := Ln(0, 0, 1, 1)
	if got := diag.AngleDeg(); math.Abs(got-45) > 1e-12 {
		t.Fatalf("AngleDeg = %v, want 45", got)
	}
}

func TestClipToRectHit(t *testing.T) {
	r := R(2, 0, 4, 10)
	l := Ln(0, 5, 10, 5)
	sp, ok := l.ClipToRect(r)
	if !ok {
		t.Fatal("expected hit")
	}
	if math.Abs(sp.T0-0.2) > 1e-12 || math.Abs(sp.T1-0.4) > 1e-12 {
		t.Fatalf("span = %+v, want [0.2,0.4]", sp)
	}
	if math.Abs(sp.Mid()-0.3) > 1e-12 {
		t.Fatalf("Mid = %v", sp.Mid())
	}
}

func TestClipToRectMiss(t *testing.T) {
	r := R(2, 6, 4, 10)
	l := Ln(0, 5, 10, 5)
	if _, ok := l.ClipToRect(r); ok {
		t.Fatal("expected miss")
	}
	// Line pointing away from the rect.
	l2 := Ln(5, 5, 6, 5)
	r2 := R(0, 0, 2, 10)
	if _, ok := l2.ClipToRect(r2); ok {
		t.Fatal("expected miss for segment ending before rect")
	}
}

func TestClipToRectDiagonal(t *testing.T) {
	r := R(0, 0, 10, 10)
	l := Ln(-5, -5, 15, 15)
	sp, ok := l.ClipToRect(r)
	if !ok {
		t.Fatal("expected hit")
	}
	a, b := l.At(sp.T0), l.At(sp.T1)
	if math.Abs(a.X) > 1e-9 || math.Abs(a.Y) > 1e-9 {
		t.Fatalf("entry point = %v, want origin", a)
	}
	if math.Abs(b.X-10) > 1e-9 || math.Abs(b.Y-10) > 1e-9 {
		t.Fatalf("exit point = %v, want (10,10)", b)
	}
}

// Property: clipping is symmetric under direction reversal — the clipped
// sub-segment covers the same physical points.
func TestClipReversalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		r := R(Coord(rng.Intn(50)), Coord(rng.Intn(50)),
			Coord(50+rng.Intn(50)), Coord(50+rng.Intn(50)))
		l := Ln(rng.Float64()*150-25, rng.Float64()*150-25,
			rng.Float64()*150-25, rng.Float64()*150-25)
		rev := Line{A: l.B, B: l.A}
		s1, ok1 := l.ClipToRect(r)
		s2, ok2 := rev.ClipToRect(r)
		if ok1 != ok2 {
			return false
		}
		if !ok1 {
			return true
		}
		p1, q1 := l.At(s1.T0), l.At(s1.T1)
		p2, q2 := rev.At(s2.T1), rev.At(s2.T0)
		const eps = 1e-6
		return math.Abs(p1.X-p2.X) < eps && math.Abs(p1.Y-p2.Y) < eps &&
			math.Abs(q1.X-q2.X) < eps && math.Abs(q1.Y-q2.Y) < eps
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: every point strictly inside the clipped span is inside the rect.
func TestClipInteriorProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		r := R(Coord(rng.Intn(40)), Coord(rng.Intn(40)),
			Coord(41+rng.Intn(40)), Coord(41+rng.Intn(40)))
		l := Ln(rng.Float64()*120-20, rng.Float64()*120-20,
			rng.Float64()*120-20, rng.Float64()*120-20)
		sp, ok := l.ClipToRect(r)
		if !ok {
			return true
		}
		for i := 1; i < 8; i++ {
			t := sp.T0 + (sp.T1-sp.T0)*float64(i)/8
			p := l.At(t)
			if p.X < float64(r.Min.X)-1e-6 || p.X > float64(r.Max.X)+1e-6 ||
				p.Y < float64(r.Min.Y)-1e-6 || p.Y > float64(r.Max.Y)+1e-6 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCorners(t *testing.T) {
	r := R(1, 2, 3, 4)
	c := r.Corners()
	want := [4]Point{Pt(1, 2), Pt(3, 2), Pt(3, 4), Pt(1, 4)}
	if c != want {
		t.Fatalf("Corners = %v, want %v", c, want)
	}
}
