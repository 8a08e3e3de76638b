package layout

import (
	"fmt"

	"cnfetdk/internal/geom"
	"cnfetdk/internal/network"
	"cnfetdk/internal/rules"
)

// Cell is a generated standard cell: the complementary network pair plus
// realized geometry for both networks (in their own local coordinates until
// assembled).
type Cell struct {
	Name  string
	Gate  *network.Gate
	Style Style
	Rules rules.Rules
	// Unit is the unit transistor width (the "transistor size" axis of
	// Table 1); device strips are width-multiple × Unit tall.
	Unit geom.Coord
	PUN  *NetGeom
	PDN  *NetGeom
}

// Generate lays out a gate in the given style. The PUN device widths are
// scaled by the technology's p/n ratio (1.4 for CMOS, 1.0 for CNFET).
func Generate(name string, g *network.Gate, style Style, unit geom.Coord, rs rules.Rules) (*Cell, error) {
	punTree := cloneSP(g.PUNTree)
	scaleWidths(punTree, rs.PToNRatio)
	// Re-elaboration of the scaled tree is deterministic, so net names
	// match g.PUN and the immunity checker can relate geometry to the
	// gate's intended conduction functions.
	punNW := network.Elaborate(punTree, network.PFET, "VDD", "OUT")
	pun, err := GenerateNetwork(style, punTree, punNW, unit, rs)
	if err != nil {
		return nil, fmt.Errorf("cell %s PUN: %w", name, err)
	}
	pdnTree := cloneSP(g.PDNTree)
	pdn, err := GenerateNetwork(style, pdnTree, g.PDN, unit, rs)
	if err != nil {
		return nil, fmt.Errorf("cell %s PDN: %w", name, err)
	}
	return &Cell{Name: name, Gate: g, Style: style, Rules: rs, Unit: unit, PUN: pun, PDN: pdn}, nil
}

func cloneSP(n *network.SPNode) *network.SPNode {
	c := &network.SPNode{Kind: n.Kind, Input: n.Input, Neg: n.Neg, Width: n.Width}
	for _, k := range n.Kids {
		c.Kids = append(c.Kids, cloneSP(k))
	}
	return c
}

func scaleWidths(n *network.SPNode, f float64) {
	if n.Kind == network.SPLeaf {
		n.Width *= f
		return
	}
	for _, k := range n.Kids {
		scaleWidths(k, f)
	}
}

// NetworksArea returns the summed bounding-box area of the two pull
// networks in λ² — the Table 1 metric (intra-cell routing is assumed to
// have similar complexity in both styles and is excluded).
func (c *Cell) NetworksArea() float64 {
	return c.PUN.BBoxArea() + c.PDN.BBoxArea()
}

// ViasOnGate returns the total vertical-gating vias needed by the cell
// (always zero for compact layouts).
func (c *Cell) ViasOnGate() int {
	return c.PUN.ViasOnGate + c.PDN.ViasOnGate
}

// Scheme selects a standard-cell assembly arrangement (Section IV.A).
type Scheme int

// Assembly schemes.
const (
	// Scheme1 stacks the PUN above the PDN with the pin/routing gap
	// between — CMOS-like, drops into a conventional P&R flow.
	Scheme1 Scheme = iota
	// Scheme2 places the PUN beside the PDN, shrinking cell height to the
	// strip height; cells are not normalized to a common height.
	Scheme2
)

// String names the scheme.
func (s Scheme) String() string {
	if s == Scheme1 {
		return "scheme1"
	}
	return "scheme2"
}

// Assembled is a placed standard cell: rails, both networks and pins in a
// single coordinate frame with the origin at the cell's lower-left corner.
type Assembled struct {
	Cell     *Cell
	Scheme   Scheme
	Width    geom.Coord
	Height   geom.Coord
	Elements []Element
	// PUNOffset/PDNOffset record where the network geometries landed, so
	// per-network shapes (the GDS doping layers) map into cell
	// coordinates.
	PUNOffset geom.Point
	PDNOffset geom.Point
}

// Assemble arranges the cell at its natural height.
func (c *Cell) Assemble(s Scheme) *Assembled {
	return c.assemble(s, 0)
}

// AssembleToHeight arranges the cell stretched to a standardized total
// height (scheme 1 row placement): the extra space widens the mid routing
// gap. Heights smaller than the natural height fall back to natural.
func (c *Cell) AssembleToHeight(s Scheme, total geom.Coord) *Assembled {
	return c.assemble(s, total)
}

func (c *Cell) assemble(s Scheme, total geom.Coord) *Assembled {
	rs := c.Rules
	a := &Assembled{Cell: c, Scheme: s}
	pun := copyGeom(c.PUN)
	pdn := copyGeom(c.PDN)
	switch s {
	case Scheme1:
		w := pun.BBox.W()
		if pdn.BBox.W() > w {
			w = pdn.BBox.W()
		}
		gap := rs.NetworkGap
		natural := rs.RailH + pdn.BBox.H() + gap + pun.BBox.H() + rs.RailH
		if total > natural {
			gap += total - natural
		}
		y := geom.Coord(0)
		a.Elements = append(a.Elements, Element{
			Kind: ElemContact, Net: "GND",
			Rect: geom.R(0, y, w, y+rs.RailH),
		})
		y += rs.RailH
		pdn.Translate(0, y)
		a.PDNOffset = geom.Pt(0, y)
		y += pdn.BBox.H()
		// Input pins sit in the routing gap at the PDN gate columns.
		pinY := y + (gap-rs.GateLen)/2
		for _, e := range pdn.Elements {
			if e.Kind == ElemGate {
				a.Elements = append(a.Elements, Element{
					Kind:  ElemPin,
					Rect:  geom.R(e.Rect.Min.X, pinY, e.Rect.Max.X+rs.GateLen, pinY+rs.GateLen),
					Input: e.Input,
					Net:   e.Input,
				})
			}
		}
		y += gap
		pun.Translate(0, y)
		a.PUNOffset = geom.Pt(0, y)
		y += pun.BBox.H()
		a.Elements = append(a.Elements, Element{
			Kind: ElemContact, Net: "VDD",
			Rect: geom.R(0, y, w, y+rs.RailH),
		})
		y += rs.RailH
		a.Width, a.Height = w, y
	case Scheme2:
		h := pun.BBox.H()
		if pdn.BBox.H() > h {
			h = pdn.BBox.H()
		}
		pun.Translate(0, 0)
		a.PUNOffset = geom.Pt(0, 0)
		x := pun.BBox.W() + rs.NetworkGap
		pdn.Translate(x, 0)
		a.PDNOffset = geom.Pt(x, 0)
		w := x + pdn.BBox.W()
		// Pins go above (or below) the strip pair — the flexibility the
		// paper highlights for scheme 2 routing.
		pinY := h + rs.GateContactGap
		for _, e := range pdn.Elements {
			if e.Kind == ElemGate {
				a.Elements = append(a.Elements, Element{
					Kind:  ElemPin,
					Rect:  geom.R(e.Rect.Min.X, pinY, e.Rect.Max.X+rs.GateLen, pinY+rs.GateLen),
					Input: e.Input,
					Net:   e.Input,
				})
			}
		}
		a.Width, a.Height = w, h+rs.GateLen+2*rs.GateContactGap
	}
	a.Elements = append(a.Elements, pun.Elements...)
	a.Elements = append(a.Elements, pdn.Elements...)
	// Output pin on the first PDN OUT contact.
	for _, e := range pdn.Elements {
		if e.Kind == ElemContact && e.Net == "OUT" {
			a.Elements = append(a.Elements, Element{Kind: ElemPin, Rect: e.Rect, Net: "OUT"})
			break
		}
	}
	return a
}

// Area returns the assembled cell area in λ².
func (a *Assembled) Area() float64 {
	return geom.R(0, 0, a.Width, a.Height).AreaLambda2()
}

func copyGeom(n *NetGeom) *NetGeom {
	c := &NetGeom{Type: n.Type, BBox: n.BBox, ViasOnGate: n.ViasOnGate}
	c.Elements = append([]Element(nil), n.Elements...)
	c.Active = append([]geom.Rect(nil), n.Active...)
	return c
}
