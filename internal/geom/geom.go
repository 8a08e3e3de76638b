// Package geom provides the rectilinear geometry substrate used by the
// CNFET layout generators and the imperfection-immunity checker.
//
// All layout coordinates are expressed in integer quarter-lambda units
// (type Coord) so that design rules such as Lgs = 1.5λ stay exact. Carbon
// nanotubes, which may be mispositioned at arbitrary angles, are modelled
// with floating-point lines (type Line) over the same coordinate space.
package geom

import (
	"fmt"
	"math"
)

// Coord is a layout coordinate in quarter-lambda units. Using quarter
// lambdas keeps every rule in the 65nm lambda deck (including half-lambda
// spacings) on an exact integer grid.
type Coord int64

// QuarterLambda is the number of Coord units per lambda.
const QuarterLambda Coord = 4

// Lambda converts a lambda count into Coord units.
func Lambda(n int) Coord { return Coord(n) * QuarterLambda }

// Lambdas reports the coordinate value as a floating-point lambda count.
func (c Coord) Lambdas() float64 { return float64(c) / float64(QuarterLambda) }

// Nanometers converts the coordinate to nanometres given the technology
// lambda (in nm).
func (c Coord) Nanometers(lambdaNM float64) float64 { return c.Lambdas() * lambdaNM }

// Point is a location on the quarter-lambda grid.
type Point struct {
	X, Y Coord
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y Coord) Point { return Point{X: x, Y: y} }

// String renders the point in lambda units for diagnostics.
func (p Point) String() string {
	return fmt.Sprintf("(%.2fλ, %.2fλ)", p.X.Lambdas(), p.Y.Lambdas())
}

// Rect is an axis-aligned rectangle. Min is inclusive and Max exclusive in
// the usual half-open convention; a Rect with Min == Max is empty.
type Rect struct {
	Min, Max Point
}

// R constructs the rectangle spanning (x0,y0)-(x1,y1), normalising the
// corner order.
func R(x0, y0, x1, y1 Coord) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{Min: Pt(x0, y0), Max: Pt(x1, y1)}
}

// W returns the rectangle width.
func (r Rect) W() Coord { return r.Max.X - r.Min.X }

// H returns the rectangle height.
func (r Rect) H() Coord { return r.Max.Y - r.Min.Y }

// Empty reports whether the rectangle has zero area.
func (r Rect) Empty() bool { return r.Max.X <= r.Min.X || r.Max.Y <= r.Min.Y }

// Area returns the rectangle area in square quarter-lambda units.
func (r Rect) Area() int64 { return int64(r.W()) * int64(r.H()) }

// AreaLambda2 returns the rectangle area in square lambdas.
func (r Rect) AreaLambda2() float64 {
	return float64(r.Area()) / float64(QuarterLambda*QuarterLambda)
}

// Translate returns the rectangle shifted by (dx, dy).
func (r Rect) Translate(dx, dy Coord) Rect {
	return Rect{Min: Pt(r.Min.X+dx, r.Min.Y+dy), Max: Pt(r.Max.X+dx, r.Max.Y+dy)}
}

// Overlaps reports whether r and s share interior area.
func (r Rect) Overlaps(s Rect) bool {
	return r.Min.X < s.Max.X && s.Min.X < r.Max.X && r.Min.Y < s.Max.Y && s.Min.Y < r.Max.Y
}

// Corners returns the four corner points of the rectangle.
func (r Rect) Corners() [4]Point {
	return [4]Point{
		r.Min,
		Pt(r.Max.X, r.Min.Y),
		r.Max,
		Pt(r.Min.X, r.Max.Y),
	}
}

// String renders the rect in lambda units.
func (r Rect) String() string {
	return fmt.Sprintf("[%v - %v]", r.Min, r.Max)
}

// FPoint is a floating-point location, used for nanotube endpoints that are
// not grid-aligned.
type FPoint struct {
	X, Y float64
}

// FPt is shorthand for FPoint{x, y}.
func FPt(x, y float64) FPoint { return FPoint{X: x, Y: y} }

// ToF converts a grid point to floating point.
func (p Point) ToF() FPoint { return FPoint{float64(p.X), float64(p.Y)} }

// Line is a directed straight segment between two floating-point points.
// Nanotubes are modelled as Lines: P(t) = A + t*(B-A) for t in [0,1].
type Line struct {
	A, B FPoint
}

// Ln constructs a line from (ax,ay) to (bx,by).
func Ln(ax, ay, bx, by float64) Line { return Line{A: FPt(ax, ay), B: FPt(bx, by)} }

// At returns the point at parameter t along the line.
func (l Line) At(t float64) FPoint {
	return FPt(l.A.X+t*(l.B.X-l.A.X), l.A.Y+t*(l.B.Y-l.A.Y))
}

// AngleDeg returns the angle of the line relative to the +X axis in degrees.
func (l Line) AngleDeg() float64 {
	return math.Atan2(l.B.Y-l.A.Y, l.B.X-l.A.X) * 180 / math.Pi
}

// Span is a parameter interval [T0, T1] of a Line, tagged by the geometry it
// crosses. Spans are produced by ClipToRect.
type Span struct {
	T0, T1 float64
}

// Mid returns the midpoint parameter of the span.
func (s Span) Mid() float64 { return (s.T0 + s.T1) / 2 }

// ClipToRect computes the parameter interval of l that lies inside r using
// the Liang-Barsky algorithm. ok is false when the line misses the
// rectangle entirely.
func (l Line) ClipToRect(r Rect) (sp Span, ok bool) {
	t0, t1 := 0.0, 1.0
	dx := l.B.X - l.A.X
	dy := l.B.Y - l.A.Y
	clip := func(p, q float64) bool {
		if p == 0 {
			return q >= 0
		}
		t := q / p
		if p < 0 {
			if t > t1 {
				return false
			}
			if t > t0 {
				t0 = t
			}
		} else {
			if t < t0 {
				return false
			}
			if t < t1 {
				t1 = t
			}
		}
		return true
	}
	xmin, ymin := float64(r.Min.X), float64(r.Min.Y)
	xmax, ymax := float64(r.Max.X), float64(r.Max.Y)
	if !clip(-dx, l.A.X-xmin) || !clip(dx, xmax-l.A.X) ||
		!clip(-dy, l.A.Y-ymin) || !clip(dy, ymax-l.A.Y) {
		return Span{}, false
	}
	if t1 <= t0 {
		return Span{}, false
	}
	return Span{T0: t0, T1: t1}, true
}
