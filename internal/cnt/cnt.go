// Package cnt models carbon-nanotube populations over a layout region:
// dense aligned arrays with a configurable fraction of mispositioned tubes
// (bounded-angle straight lines, as assumed by the paper's immunity
// argument) and optionally metallic tubes for extension studies.
//
// The paper assumes metallic CNTs are removed during manufacturing
// (Section II), so MetallicFrac defaults to zero; the knob exists to study
// what the layouts do when that assumption is violated.
package cnt

import (
	"math"
	"math/rand"

	"cnfetdk/internal/geom"
)

// Tube is one carbon nanotube, modelled as a straight segment.
type Tube struct {
	Line geom.Line
	// Mispositioned marks tubes drawn from the misalignment distribution
	// rather than the aligned array.
	Mispositioned bool
	// Metallic tubes conduct regardless of gate state.
	Metallic bool
}

// AngleDeg returns the tube's angle from the +X axis.
func (t Tube) AngleDeg() float64 { return t.Line.AngleDeg() }

// Params configures population synthesis.
type Params struct {
	// PitchNM is the target inter-tube pitch in nanometres (the paper's
	// optimal value is ~5nm; growth processes are coarser).
	PitchNM float64
	// LambdaNM converts the layout grid to nanometres (32.5 at 65nm).
	LambdaNM float64
	// MisalignedFrac is the fraction of tubes drawn mispositioned
	// ("a small percentage of CNTs tend to still get misaligned").
	MisalignedFrac float64
	// MaxAngleDeg bounds the misalignment angle (uniform in ±MaxAngleDeg).
	MaxAngleDeg float64
	// MetallicFrac is the fraction of metallic tubes (post-removal).
	MetallicFrac float64
}

// DefaultParams returns a population matching the paper's assumptions:
// 5nm pitch at the 65nm node, a few percent mispositioned within ±15°, no
// metallic tubes.
func DefaultParams() Params {
	return Params{
		PitchNM:        5,
		LambdaNM:       32.5,
		MisalignedFrac: 0.05,
		MaxAngleDeg:    15,
		MetallicFrac:   0,
	}
}

// pitchCoord returns the tube pitch in quarter-lambda Coord units
// (fractional pitches are handled by accumulating in float space).
func (p Params) pitchCoord() float64 {
	return p.PitchNM / p.LambdaNM * float64(geom.QuarterLambda)
}

// Generate synthesizes a tube population covering region. Aligned tubes
// run horizontally at the configured pitch; each tube is independently
// mispositioned with probability MisalignedFrac, in which case it is
// replaced by a line at a uniform angle within ±MaxAngleDeg anchored at a
// uniform point of the region. The rng makes runs reproducible.
func Generate(region geom.Rect, p Params, rng *rand.Rand) []Tube {
	if region.Empty() {
		return nil
	}
	pitch := p.pitchCoord()
	if pitch <= 0 {
		pitch = 1
	}
	var tubes []Tube
	x0 := float64(region.Min.X)
	x1 := float64(region.Max.X)
	margin := (x1 - x0) * 0.05
	for y := float64(region.Min.Y) + pitch/2; y < float64(region.Max.Y); y += pitch {
		t := Tube{}
		if rng.Float64() < p.MisalignedFrac {
			t.Mispositioned = true
			t.Line = misalignedLine(region, p, rng)
		} else {
			t.Line = geom.Ln(x0-margin, y, x1+margin, y)
		}
		if p.MetallicFrac > 0 && rng.Float64() < p.MetallicFrac {
			t.Metallic = true
		}
		tubes = append(tubes, t)
	}
	return tubes
}

// misalignedLine draws a random straight tube crossing the region at a
// bounded angle: anchor uniform in the region, angle uniform in
// ±MaxAngleDeg, length long enough to span the region.
func misalignedLine(region geom.Rect, p Params, rng *rand.Rand) geom.Line {
	ax := float64(region.Min.X) + rng.Float64()*float64(region.W())
	ay := float64(region.Min.Y) + rng.Float64()*float64(region.H())
	ang := (2*rng.Float64() - 1) * p.MaxAngleDeg * math.Pi / 180
	// Long enough to cross the whole region regardless of anchor.
	l := float64(region.W()) + float64(region.H())
	dx, dy := math.Cos(ang)*l, math.Sin(ang)*l
	return geom.Ln(ax-dx, ay-dy, ax+dx, ay+dy)
}
