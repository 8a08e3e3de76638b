package route

import (
	"context"
	"testing"

	"cnfetdk/internal/cells"
	"cnfetdk/internal/geom"
	"cnfetdk/internal/place"
	"cnfetdk/internal/rules"
	"cnfetdk/internal/synth"
)

// fakePlacement builds a placement directly for router unit tests.
func fakePlacement(cellsAt [][2]geom.Coord, nets [][]int) (*place.Placement, *synth.Netlist) {
	p := &place.Placement{Name: "t"}
	nl := &synth.Netlist{Name: "t"}
	for i, at := range cellsAt {
		inst := synth.Instance{
			Name:  string(rune('a' + i)),
			Cell:  "INV_1X",
			Conns: map[string]string{},
		}
		p.Cells = append(p.Cells, place.PlacedCell{
			Inst: inst,
			X:    at[0], Y: at[1],
			W: geom.Lambda(8), H: geom.Lambda(8),
		})
		if at[0]+geom.Lambda(8) > p.Width {
			p.Width = at[0] + geom.Lambda(8)
		}
		if at[1]+geom.Lambda(8) > p.Height {
			p.Height = at[1] + geom.Lambda(8)
		}
	}
	for ni, members := range nets {
		name := "net" + string(rune('0'+ni))
		for _, ci := range members {
			p.Cells[ci].Inst.Conns["P"+name] = name
		}
	}
	return p, nl
}

func TestTwoPinNetManhattanLength(t *testing.T) {
	p, nl := fakePlacement([][2]geom.Coord{
		{0, 0}, {geom.Lambda(40), 0},
	}, [][]int{{0, 1}})
	res, err := Route(p, nl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nets) != 1 {
		t.Fatalf("nets routed = %d", len(res.Nets))
	}
	// Cell centers 40λ apart horizontally: routed length must equal the
	// snapped Manhattan distance (40λ, same row).
	if got := res.Nets[0].WirelenLambda; got != 40 {
		t.Fatalf("wirelength = %vλ, want 40", got)
	}
	if res.OverflowEdges != 0 {
		t.Fatal("single net cannot overflow")
	}
}

func TestLShapedRouteHasVia(t *testing.T) {
	p, nl := fakePlacement([][2]geom.Coord{
		{0, 0}, {geom.Lambda(40), geom.Lambda(40)},
	}, [][]int{{0, 1}})
	res, err := Route(p, nl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	n := res.Nets[0]
	if n.WirelenLambda != 80 {
		t.Fatalf("wirelength = %vλ, want 80 (Manhattan)", n.WirelenLambda)
	}
	if len(n.Segments) < 2 {
		t.Fatalf("L route needs >= 2 segments, got %d", len(n.Segments))
	}
	if res.Vias == 0 {
		t.Fatal("layer change must count a via")
	}
}

func TestMultiPinChain(t *testing.T) {
	p, nl := fakePlacement([][2]geom.Coord{
		{0, 0}, {geom.Lambda(24), 0}, {geom.Lambda(48), 0},
	}, [][]int{{0, 1, 2}})
	res, err := Route(p, nl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Nets[0].WirelenLambda; got != 48 {
		t.Fatalf("3-pin chain wirelength = %vλ, want 48", got)
	}
}

func TestCongestionDetours(t *testing.T) {
	// Many parallel nets across the same cut must either share edges
	// (overflow) or detour (longer wirelength); with capacity 1 and heavy
	// penalty the router detours.
	var cellsAt [][2]geom.Coord
	var nets [][]int
	for i := 0; i < 6; i++ {
		y := geom.Coord(i) * geom.Lambda(4)
		cellsAt = append(cellsAt, [2]geom.Coord{0, y}, [2]geom.Coord{geom.Lambda(40), y})
		nets = append(nets, []int{2 * i, 2*i + 1})
	}
	p, nl := fakePlacement(cellsAt, nets)
	opt := DefaultOptions()
	opt.Capacity = 1
	res, err := Route(p, nl, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxEdgeLoad > 2 {
		t.Fatalf("max edge load %d despite congestion costs", res.MaxEdgeLoad)
	}
	total := 0.0
	for _, n := range res.Nets {
		total += n.WirelenLambda
	}
	if total < 6*40 {
		t.Fatalf("total wirelength %vλ below the 6-net minimum", total)
	}
}

func TestSegmentsContinuous(t *testing.T) {
	p, nl := fakePlacement([][2]geom.Coord{
		{0, 0}, {geom.Lambda(32), geom.Lambda(24)},
	}, [][]int{{0, 1}})
	res, err := Route(p, nl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	segs := res.Nets[0].Segments
	for i := 1; i < len(segs); i++ {
		if segs[i].From != segs[i-1].To {
			t.Fatalf("segment %d discontinuous: %v -> %v", i, segs[i-1].To, segs[i].From)
		}
	}
}

func TestRouteFullAdderPlacements(t *testing.T) {
	cn, err := cells.NewLibraryCtx(context.Background(), rules.CNFET, cells.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nl := synth.FullAdder()
	for _, placer := range []struct {
		name string
		fn   func() (*place.Placement, error)
	}{
		{"scheme1", func() (*place.Placement, error) { return place.Rows(cn, nl, 2) }},
		{"scheme2", func() (*place.Placement, error) { return place.Shelves(cn, nl, 0) }},
	} {
		p, err := placer.fn()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Route(p, nl, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", placer.name, err)
		}
		if len(res.Nets) == 0 || res.TotalWirelenLambda <= 0 {
			t.Fatalf("%s: nothing routed", placer.name)
		}
		// Routed length must be at least the HPWL lower bound per net.
		hpwl := p.HPWL(nl)
		for _, n := range res.Nets {
			lb := hpwl[n.Name]
			if n.WirelenLambda+8 < lb { // one grid step of snap slack
				t.Fatalf("%s: net %s routed %vλ below HPWL %vλ",
					placer.name, n.Name, n.WirelenLambda, lb)
			}
		}
		t.Logf("%s: %d nets, %.0fλ wire, %d vias, overflow %d, max load %d",
			placer.name, len(res.Nets), res.TotalWirelenLambda,
			res.Vias, res.OverflowEdges, res.MaxEdgeLoad)
	}
}
