// Package layout generates CNFET standard-cell layouts.
//
// Three generator families reproduce the paper's Section III comparison:
//
//   - Compact (this paper's contribution): each network is flattened into a
//     single active row by walking an Euler trail over the transistor
//     multigraph, inserting redundant metal contacts where the trail
//     revisits a tapped net. Gates span the full local active height, so
//     every path between contacts of different nets crosses the intended
//     gate series — misaligned-CNT-immune with no etched regions.
//   - Stacked (ref [6], Patil DAC'07 baseline): parallel branches are
//     stacked vertically between shared contact columns; etched regions
//     separate vertically adjacent strips. Without the etch separators this
//     degenerates into the misaligned-CNT-*vulnerable* layout of Fig 2(b).
//     Interior gates need vertical gating (a via on top of the gate).
//   - CMOS: the compact generator under CMOS rules (Euler-path diffusion
//     rows are standard CMOS practice), with the pMOS/nMOS width ratio and
//     the 10λ diffusion separation of the 65nm node.
//
// All geometry is expressed in quarter-lambda Coords on layers suitable for
// the immunity checker, the design-rule checker and the GDSII writer.
package layout

import (
	"fmt"
	"math"
	"sort"

	"cnfetdk/internal/geom"
	"cnfetdk/internal/network"
	"cnfetdk/internal/rules"
)

// ElemKind classifies a layout element.
type ElemKind int

// Layout element kinds.
const (
	ElemContact ElemKind = iota // metal source/drain contact column
	ElemGate                    // gate stripe
	ElemEtch                    // etched (CNT cut) region
	ElemVia                     // vertical-gating via (on top of a gate)
	ElemStrap                   // intra-cell metal strap connecting contacts
	ElemPin                     // input/output pin marker
)

// String names the element kind.
func (k ElemKind) String() string {
	switch k {
	case ElemContact:
		return "contact"
	case ElemGate:
		return "gate"
	case ElemEtch:
		return "etch"
	case ElemVia:
		return "via"
	case ElemStrap:
		return "strap"
	case ElemPin:
		return "pin"
	}
	return "?"
}

// Element is one placed layout shape.
type Element struct {
	Kind  ElemKind
	Rect  geom.Rect
	Net   string // contact/strap/pin: net name
	Input string // gate/via/pin: controlling input name
	Neg   bool   // gate: complemented input
}

// NetGeom is the realized geometry of one pull network.
type NetGeom struct {
	Type network.DeviceType
	// Elements holds contacts, gates, etches, vias and straps.
	Elements []Element
	// Active is the union of CNT-bearing regions (non-overlapping rects).
	// Anything outside Active within the bounding box has been removed by
	// the cell-boundary etch; tubes there are cut.
	Active []geom.Rect
	// BBox is the bounding box of the network.
	BBox geom.Rect
	// ViasOnGate counts vertical-gating vias (zero for compact layouts —
	// a key manufacturability advantage the paper claims).
	ViasOnGate int
}

// ActiveArea returns the total CNT-bearing area in λ², computed as the
// union of the active rects (generators may emit overlapping rects, e.g.
// shared contact columns overlapping strip actives).
func (n *NetGeom) ActiveArea() float64 {
	return UnionArea(n.Active)
}

// UnionArea computes the area of a union of rectangles in λ² by coordinate
// compression.
func UnionArea(rects []geom.Rect) float64 {
	if len(rects) == 0 {
		return 0
	}
	var xs, ys []geom.Coord
	for _, r := range rects {
		if r.Empty() {
			continue
		}
		xs = append(xs, r.Min.X, r.Max.X)
		ys = append(ys, r.Min.Y, r.Max.Y)
	}
	uniq := func(v []geom.Coord) []geom.Coord {
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		out := v[:0]
		for i, x := range v {
			if i == 0 || x != out[len(out)-1] {
				out = append(out, x)
			}
		}
		return out
	}
	xs, ys = uniq(xs), uniq(ys)
	total := int64(0)
	for i := 0; i+1 < len(xs); i++ {
		for j := 0; j+1 < len(ys); j++ {
			cx, cy := xs[i], ys[j]
			for _, r := range rects {
				if cx >= r.Min.X && xs[i+1] <= r.Max.X && cy >= r.Min.Y && ys[j+1] <= r.Max.Y {
					total += int64(xs[i+1]-cx) * int64(ys[j+1]-cy)
					break
				}
			}
		}
	}
	return float64(total) / float64(geom.QuarterLambda*geom.QuarterLambda)
}

// BBoxArea returns the bounding-box area in λ².
func (n *NetGeom) BBoxArea() float64 { return n.BBox.AreaLambda2() }

// Translate shifts all geometry by (dx, dy).
func (n *NetGeom) Translate(dx, dy geom.Coord) {
	for i := range n.Elements {
		n.Elements[i].Rect = n.Elements[i].Rect.Translate(dx, dy)
	}
	for i := range n.Active {
		n.Active[i] = n.Active[i].Translate(dx, dy)
	}
	n.BBox = n.BBox.Translate(dx, dy)
}

// Contacts returns the contact elements.
func (n *NetGeom) Contacts() []Element {
	var out []Element
	for _, e := range n.Elements {
		if e.Kind == ElemContact {
			out = append(out, e)
		}
	}
	return out
}

// Gates returns the gate elements.
func (n *NetGeom) Gates() []Element {
	var out []Element
	for _, e := range n.Elements {
		if e.Kind == ElemGate {
			out = append(out, e)
		}
	}
	return out
}

// Etches returns the etch elements.
func (n *NetGeom) Etches() []geom.Rect {
	var out []geom.Rect
	for _, e := range n.Elements {
		if e.Kind == ElemEtch {
			out = append(out, e.Rect)
		}
	}
	return out
}

// Style selects a layout generator family.
type Style int

// Layout styles.
const (
	StyleCompact    Style = iota // this paper: Euler-trail rows
	StyleEtched                  // ref [6]: stacked strips with etched separators
	StyleVulnerable              // stacked strips without etch (Fig 2b)
)

// String names the style.
func (s Style) String() string {
	switch s {
	case StyleCompact:
		return "compact"
	case StyleEtched:
		return "etched"
	case StyleVulnerable:
		return "vulnerable"
	}
	return "?"
}

// quantize converts a width multiple into a Coord height given the unit
// transistor width.
func quantize(mult float64, unit geom.Coord) geom.Coord {
	h := geom.Coord(math.Round(mult * float64(unit)))
	if h < 1 {
		h = 1
	}
	return h
}

// GenerateNetwork lays out one pull network in the given style.
// unit is the unit transistor width; device heights are width-multiple ×
// unit. For StyleEtched/StyleVulnerable the SP tree drives the recursive
// stacked construction; for StyleCompact the flattened network drives the
// Euler walk. Both share net names with nw so the immunity checker can
// relate geometry to intended conduction.
func GenerateNetwork(style Style, sp *network.SPNode, nw *network.Network, unit geom.Coord, rs rules.Rules) (*NetGeom, error) {
	switch style {
	case StyleCompact:
		return compactNetwork(nw, unit, rs)
	case StyleEtched:
		return stackedNetwork(sp, nw, unit, rs, true)
	case StyleVulnerable:
		return stackedNetwork(sp, nw, unit, rs, false)
	}
	return nil, fmt.Errorf("layout: unknown style %d", style)
}
