package layout

import (
	"fmt"
	"maps"
	"slices"

	"cnfetdk/internal/euler"
	"cnfetdk/internal/geom"
	"cnfetdk/internal/network"
	"cnfetdk/internal/rules"
)

// compactNetwork builds the paper's misaligned-CNT-immune row layout for
// one pull network: contacts and gates alternate along an Euler trail of
// the transistor multigraph. Redundant contacts appear wherever the trail
// visits a net that is a terminal or has degree != 2; a degree-2 internal
// net visited between two consecutive gates becomes a shared-diffusion gap
// instead. Multiple trails (networks whose multigraph has >2 odd nodes)
// are placed in the same row separated by an etched cut.
func compactNetwork(nw *network.Network, unit geom.Coord, rs rules.Rules) (*NetGeom, error) {
	g := euler.FromNetwork(nw)
	trails := g.Trails(nw.Top)
	if err := euler.Validate(g, trails); err != nil {
		return nil, fmt.Errorf("layout: euler decomposition: %w", err)
	}
	out := &NetGeom{Type: nw.Type}
	x := geom.Coord(0)
	// Track contact positions per net for strap insertion.
	netContacts := map[string][]geom.Rect{}
	rowMaxH := geom.Coord(0)
	for _, e := range g.Edges {
		if h := quantize(e.Width, unit); h > rowMaxH {
			rowMaxH = h
		}
	}
	terminal := map[string]bool{nw.Top: true, nw.Bottom: true}

	emitContact := func(net string) {
		r := geom.R(x, 0, x+rs.ContactW, rowMaxH)
		out.Elements = append(out.Elements, Element{Kind: ElemContact, Rect: r, Net: net})
		out.Active = append(out.Active, r)
		netContacts[net] = append(netContacts[net], r)
		x += rs.ContactW
	}
	emitGap := func(w, h geom.Coord) {
		out.Active = append(out.Active, geom.R(x, 0, x+w, h))
		x += w
	}
	emitGate := func(e euler.Edge) {
		h := quantize(e.Width, unit)
		r := geom.R(x, 0, x+rs.GateLen, h)
		out.Elements = append(out.Elements, Element{Kind: ElemGate, Rect: r, Input: e.Label, Neg: e.Neg})
		out.Active = append(out.Active, r)
		x += rs.GateLen
	}
	emitEtch := func() {
		r := geom.R(x, 0, x+rs.EtchW, rowMaxH)
		out.Elements = append(out.Elements, Element{Kind: ElemEtch, Rect: r})
		// Etched regions carry no CNTs: not part of Active.
		x += rs.EtchW
	}

	for ti, tr := range trails {
		if ti > 0 {
			emitEtch()
		}
		emitContact(tr.Nodes[0])
		afterPass := false
		for i, eid := range tr.Edges {
			e := g.Edges[eid]
			h := quantize(e.Width, unit)
			if !afterPass {
				emitGap(rs.GateContactGap, h)
			}
			afterPass = false
			emitGate(e)
			node := tr.Nodes[i+1]
			last := i == len(tr.Edges)-1
			// A contact is required at the trail end, at every terminal
			// visit, and at any internal net the walk revisits (degree
			// != 2): two pass-throughs of one net would leave its
			// diffusion segments electrically disconnected.
			if last || terminal[node] || g.Degree(node) != 2 {
				emitGap(rs.GateContactGap, h)
				emitContact(node)
			} else {
				// Shared diffusion between consecutive series gates.
				next := g.Edges[tr.Edges[i+1]]
				nh := quantize(next.Width, unit)
				if nh != h {
					return nil, fmt.Errorf("layout: unequal series widths %v/%v at net %s", h, nh, node)
				}
				emitGap(rs.GateGateGap, h)
				afterPass = true
			}
		}
	}

	// Metal straps join repeated contacts of one net (the paper's
	// redundant contacts). A strap spans from the first to the last
	// contact of the net, drawn above the row; it is routing metal, not
	// active, so it does not affect immunity. Straps go in net order, so
	// a cell's elements (and its GDS) do not depend on map order.
	strapY := rowMaxH + rs.GateContactGap
	for _, net := range slices.Sorted(maps.Keys(netContacts)) {
		cs := netContacts[net]
		if len(cs) < 2 {
			continue
		}
		minX, maxX := cs[0].Min.X, cs[0].Max.X
		for _, c := range cs[1:] {
			if c.Min.X < minX {
				minX = c.Min.X
			}
			if c.Max.X > maxX {
				maxX = c.Max.X
			}
		}
		out.Elements = append(out.Elements, Element{
			Kind: ElemStrap,
			Rect: geom.R(minX, strapY, maxX, strapY+rs.GateContactGap),
			Net:  net,
		})
	}

	out.BBox = geom.R(0, 0, x, rowMaxH)
	return out, nil
}
