package flow

import (
	"io"

	"cnfetdk/internal/cells"
	"cnfetdk/internal/gdsii"
	"cnfetdk/internal/geom"
	"cnfetdk/internal/layout"
	"cnfetdk/internal/network"
	"cnfetdk/internal/place"
)

// nmPerCoord converts a layout Coord to GDS database units (1 dbu = 1nm).
func nmPerCoord(lambdaNM float64) float64 {
	return lambdaNM / float64(geom.QuarterLambda)
}

func toDBU(c geom.Coord, scale float64) int32 {
	return int32(float64(c)*scale + 0.5)
}

// exportRect writes one rect on a layer.
func exportRect(s *gdsii.Structure, layer int16, r geom.Rect, scale float64) {
	s.Rect(layer, toDBU(r.Min.X, scale), toDBU(r.Min.Y, scale),
		toDBU(r.Max.X, scale), toDBU(r.Max.Y, scale))
}

// elementLayer maps a layout element to its GDS layer.
func elementLayer(e layout.Element) int16 {
	switch e.Kind {
	case layout.ElemContact:
		return gdsii.LayerContact
	case layout.ElemGate:
		return gdsii.LayerGate
	case layout.ElemEtch:
		return gdsii.LayerEtch
	case layout.ElemVia:
		return gdsii.LayerVia1
	case layout.ElemStrap:
		return gdsii.LayerMetal1
	case layout.ElemPin:
		return gdsii.LayerPin
	}
	return gdsii.LayerBoundary
}

// ExportCell renders a cell layout, assembled under scheme, as one GDS
// structure named after the cell and the scheme: active CNT regions
// with their doping layers, then every drawn element, then pin labels.
// lambdaNM scales layout coordinates to database units. Returns the
// structure name; a structure already in lib is not written again.
func ExportCell(lib *gdsii.Library, c *layout.Cell, cellName string, lambdaNM float64, scheme layout.Scheme) string {
	name := cellName + "_" + scheme.String()
	if lib.Find(name) != nil {
		return name
	}
	s := lib.Add(name)
	scale := nmPerCoord(lambdaNM)
	a := c.Assemble(scheme)

	dope := func(ng *layout.NetGeom, off geom.Point) {
		dopeLayer := gdsii.LayerNDope
		if ng.Type == network.PFET {
			dopeLayer = gdsii.LayerPDope
		}
		for _, r := range ng.Active {
			rr := r.Translate(off.X, off.Y)
			exportRect(s, gdsii.LayerCNT, rr, scale)
			exportRect(s, dopeLayer, rr, scale)
		}
	}
	dope(c.PUN, a.PUNOffset)
	dope(c.PDN, a.PDNOffset)

	for _, e := range a.Elements {
		exportRect(s, elementLayer(e), e.Rect, scale)
		if e.Kind == layout.ElemPin {
			label := e.Net
			if label == "" {
				label = e.Input
			}
			cx := (e.Rect.Min.X + e.Rect.Max.X) / 2
			cy := (e.Rect.Min.Y + e.Rect.Max.Y) / 2
			s.Label(gdsii.LayerPin, toDBU(cx, scale), toDBU(cy, scale), label)
		}
	}
	// Cell boundary.
	exportRect(s, gdsii.LayerBoundary, geom.R(0, 0, a.Width, a.Height), scale)
	return name
}

// ExportPlacement renders a placed design: one structure per distinct cell
// plus a top structure of SREFs — the final GDSII of the logic-to-GDSII
// flow (Fig 9 is the scheme-2 full adder exported this way).
func ExportPlacement(clib *cells.Library, p *place.Placement, topName string) *gdsii.Library {
	lib := gdsii.NewLibrary("CNFETDK")
	top := lib.Add(topName)
	scale := nmPerCoord(clib.Rules.LambdaNM)
	for _, pc := range p.Cells {
		ref := ExportCell(lib, pc.Cell.Layout, pc.Cell.FullName(), pc.Cell.Rules.LambdaNM, p.Scheme)
		top.Ref(ref, toDBU(pc.X, scale), toDBU(pc.Y, scale))
	}
	return lib
}

// WritePlacementGDS is a convenience wrapper: export and stream.
func WritePlacementGDS(w io.Writer, clib *cells.Library, p *place.Placement, topName string) error {
	return ExportPlacement(clib, p, topName).Write(w)
}
