package cnt

import (
	"math"
	"math/rand"
	"testing"

	"cnfetdk/internal/geom"
)

func region() geom.Rect {
	return geom.R(0, 0, geom.Lambda(24), geom.Lambda(12))
}

func TestGenerateAlignedPopulation(t *testing.T) {
	p := DefaultParams()
	p.MisalignedFrac = 0
	tubes := Generate(region(), p, rand.New(rand.NewSource(1)))
	if len(tubes) == 0 {
		t.Fatal("no tubes")
	}
	// 12λ = 390nm at 5nm pitch → 78 tubes.
	want := int(12 * 32.5 / 5)
	if len(tubes) < want-2 || len(tubes) > want+2 {
		t.Fatalf("tube count = %d, want ~%d", len(tubes), want)
	}
	for _, tb := range tubes {
		if tb.Mispositioned || tb.Metallic {
			t.Fatal("aligned population flags wrong")
		}
		if tb.AngleDeg() != 0 {
			t.Fatalf("aligned tube at angle %v", tb.AngleDeg())
		}
		// Tubes must span the region horizontally.
		if tb.Line.A.X > float64(region().Min.X) || tb.Line.B.X < float64(region().Max.X) {
			t.Fatal("aligned tube does not span region")
		}
	}
}

func TestMisalignedFraction(t *testing.T) {
	p := DefaultParams()
	p.MisalignedFrac = 0.3
	rng := rand.New(rand.NewSource(2))
	mis, total := 0, 0
	for i := 0; i < 50; i++ {
		for _, tb := range Generate(region(), p, rng) {
			total++
			if tb.Mispositioned {
				mis++
			}
		}
	}
	frac := float64(mis) / float64(total)
	if math.Abs(frac-0.3) > 0.05 {
		t.Fatalf("mispositioned fraction = %.3f, want ~0.3", frac)
	}
}

func TestMisalignedAngleBound(t *testing.T) {
	p := DefaultParams()
	p.MisalignedFrac = 1
	p.MaxAngleDeg = 10
	tubes := Generate(region(), p, rand.New(rand.NewSource(3)))
	for _, tb := range tubes {
		a := math.Abs(tb.AngleDeg())
		if a > 10.0001 {
			t.Fatalf("tube angle %v exceeds bound", a)
		}
	}
}

func TestMetallicFraction(t *testing.T) {
	p := DefaultParams()
	p.MetallicFrac = 0.5
	rng := rand.New(rand.NewSource(4))
	met, total := 0, 0
	for i := 0; i < 30; i++ {
		for _, tb := range Generate(region(), p, rng) {
			total++
			if tb.Metallic {
				met++
			}
		}
	}
	frac := float64(met) / float64(total)
	if math.Abs(frac-0.5) > 0.06 {
		t.Fatalf("metallic fraction = %.3f, want ~0.5", frac)
	}
}

func TestEmptyRegion(t *testing.T) {
	p := DefaultParams()
	if got := Generate(geom.Rect{}, p, rand.New(rand.NewSource(5))); got != nil {
		t.Fatal("empty region should produce no tubes")
	}
}

func TestDeterminism(t *testing.T) {
	p := DefaultParams()
	p.MisalignedFrac = 0.5
	a := Generate(region(), p, rand.New(rand.NewSource(7)))
	b := Generate(region(), p, rand.New(rand.NewSource(7)))
	if len(a) != len(b) {
		t.Fatal("nondeterministic count")
	}
	for i := range a {
		if a[i].Line != b[i].Line {
			t.Fatal("nondeterministic geometry")
		}
	}
}
