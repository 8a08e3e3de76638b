// Package cells builds the CNFET standard-cell library of the design kit
// (Section IV.A): every cell is specified by its pull-down function,
// generated as a misaligned-CNT-immune compact layout, instantiable into
// the spice engine at any drive strength, and characterized (delay,
// energy) against a reference load. A CMOS twin of the library supports
// the paper's technology comparison at the shared 65nm node.
package cells

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"cnfetdk/internal/device"
	"cnfetdk/internal/drc"
	"cnfetdk/internal/geom"
	"cnfetdk/internal/layout"
	"cnfetdk/internal/logic"
	"cnfetdk/internal/network"
	"cnfetdk/internal/rules"
	"cnfetdk/internal/spice"
)

// Spec declares one library cell.
type Spec struct {
	Name     string
	PullDown string // pull-down function; output is its complement
	Drives   []float64
}

// DefaultSpecs returns the library contents: the cells of Table 1 plus the
// AOI31 of Fig 4, at the drive strengths the full-adder case study uses.
func DefaultSpecs() []Spec {
	return []Spec{
		{Name: "INV", PullDown: "A", Drives: []float64{1, 2, 4, 7, 9}},
		{Name: "NAND2", PullDown: "AB", Drives: []float64{1, 2, 4}},
		{Name: "NAND3", PullDown: "ABC", Drives: []float64{1, 2}},
		{Name: "NOR2", PullDown: "A+B", Drives: []float64{1, 2, 4}},
		{Name: "NOR3", PullDown: "A+B+C", Drives: []float64{1, 2}},
		{Name: "AOI21", PullDown: "AB+C", Drives: []float64{1, 2}},
		{Name: "AOI22", PullDown: "AB+CD", Drives: []float64{1, 2}},
		{Name: "AOI31", PullDown: "ABC+D", Drives: []float64{1}},
		{Name: "OAI21", PullDown: "(A+B)C", Drives: []float64{1, 2}},
		{Name: "OAI22", PullDown: "(A+B)(C+D)", Drives: []float64{1}},
	}
}

// Cell is one library entry at a specific drive strength.
type Cell struct {
	Name   string  // e.g. "NAND2"
	Drive  float64 // strength multiple (1 = 1X)
	Tech   rules.Tech
	Gate   *network.Gate
	Layout *layout.Cell
	Rules  rules.Rules
}

// FullName renders e.g. "NAND2_2X".
func (c *Cell) FullName() string {
	return fmt.Sprintf("%s_%gX", c.Name, c.Drive)
}

// Inputs returns the cell's input pin names.
func (c *Cell) Inputs() []string { return c.Gate.Inputs }

// Library is a technology-bound cell collection. A library lays out
// and design-rule-checks each cell on first use, so a kit pays only for
// the cells its designs instantiate. A Library is safe for concurrent
// use.
type Library struct {
	Tech  rules.Tech
	Rules rules.Rules
	FO4   device.FO4Params
	// UnitW is the unit transistor width (4λ at this node).
	UnitW geom.Coord
	// cells builds each cell, by full name, on its first call.
	cells map[string]func() (*Cell, error)
}

// NewLibrary registers every (spec, drive) of the library for a
// technology. CNFET cells use the paper's compact immune layouts; CMOS
// cells use the same Euler-row generator under CMOS rules. Nothing is
// built here: the first Get of a cell synthesizes its gate (shared by
// the spec's drive strengths), generates its layout and checks it
// against the design rules, once; later Gets return the same *Cell.
// Every step is deterministic, so the library does not depend on which
// goroutine builds a cell or in which order.
func NewLibrary(tech rules.Tech) *Library {
	lib := &Library{
		Tech:  tech,
		Rules: rules.Default65nm(tech),
		FO4:   device.DefaultFO4(),
		UnitW: geom.Lambda(4),
		cells: map[string]func() (*Cell, error){},
	}
	for _, spec := range DefaultSpecs() {
		// layout.Generate clones the SP trees it scales, so every drive
		// strength can lay out concurrently off one gate.
		gate := sync.OnceValues(func() (*network.Gate, error) {
			return network.NewGate(spec.Name, logic.MustParse(spec.PullDown), 1)
		})
		for _, drive := range spec.Drives {
			c := &Cell{Name: spec.Name, Drive: drive, Tech: tech, Rules: lib.Rules}
			lib.cells[c.FullName()] = sync.OnceValues(func() (*Cell, error) {
				return lib.build(c, gate)
			})
		}
	}
	return lib
}

// build completes a registered cell: its gate, its compact layout at the
// cell's drive and a clean design-rule check.
func (l *Library) build(c *Cell, gate func() (*network.Gate, error)) (*Cell, error) {
	g, err := gate()
	if err != nil {
		return nil, fmt.Errorf("cells: %s: %w", c.Name, err)
	}
	lay, err := layout.Generate(c.Name, g, layout.StyleCompact, geom.Coord(float64(l.UnitW)*c.Drive), l.Rules)
	if err != nil {
		return nil, fmt.Errorf("cells: %s layout: %w", c.FullName(), err)
	}
	if vs := drc.CheckCell(lay); len(vs) > 0 {
		return nil, fmt.Errorf("cells: %s drc: %d violations, first: %s", c.FullName(), len(vs), vs[0])
	}
	c.Gate, c.Layout = g, lay
	return c, nil
}

// Get returns a cell by full name (e.g. "INV_4X"), building it on its
// first use.
func (l *Library) Get(full string) (*Cell, error) {
	build, ok := l.cells[full]
	if !ok {
		return nil, fmt.Errorf("cells: no cell %q", full)
	}
	return build()
}

// MustGet panics on a missing cell; for static flows.
func (l *Library) MustGet(full string) *Cell {
	c, err := l.Get(full)
	if err != nil {
		panic(err)
	}
	return c
}

// Names returns the full names of all cells, sorted, without building
// any.
func (l *Library) Names() []string { return slices.Sorted(maps.Keys(l.cells)) }

// fetFor builds the simulator device for one transistor of the cell.
func (l *Library) fetFor(name string, typ network.DeviceType, widthMult float64) device.FETParams {
	pol := device.NType
	if typ == network.PFET {
		pol = device.PType
	}
	if l.Tech == rules.CNFET {
		return device.CNFETAtOptimalPitch(name, pol, widthMult, l.FO4)
	}
	w := widthMult
	if pol == device.PType {
		w *= l.Rules.PToNRatio
	}
	return device.CMOSFET(name, pol, w)
}

// Instantiate wires the cell into a circuit. conns maps the cell's formal
// nets (inputs, "OUT", "VDD", "GND") to circuit nodes; internal diffusion
// nets are made unique per instance *and per network* — the PUN's and
// PDN's elaborations both count internal nodes from x1, and those are
// physically distinct diffusion islands that must never short. Device
// widths are the sized network widths times the cell drive strength.
func (l *Library) Instantiate(ckt *spice.Circuit, inst string, c *Cell, conns map[string]string) error {
	mapNet := func(side string, n string) string {
		if m, ok := conns[n]; ok {
			return m
		}
		switch n {
		case "VDD", "GND":
			return n
		}
		return inst + "." + side + "." + n
	}
	for _, missing := range append([]string{"OUT"}, c.Gate.Inputs...) {
		if _, ok := conns[missing]; !ok {
			return fmt.Errorf("cells: %s instance %s: net %q unconnected", c.FullName(), inst, missing)
		}
	}
	for i, d := range c.Gate.PUN.Devices {
		p := l.fetFor(fmt.Sprintf("%s.p%d", inst, i), network.PFET, d.Width*c.Drive)
		ckt.AddFET(p.Name, mapNet("p", d.To), mapNet("p", d.Gate), mapNet("p", d.From), p)
	}
	for i, d := range c.Gate.PDN.Devices {
		p := l.fetFor(fmt.Sprintf("%s.n%d", inst, i), network.NFET, d.Width*c.Drive)
		ckt.AddFET(p.Name, mapNet("n", d.From), mapNet("n", d.Gate), mapNet("n", d.To), p)
	}
	return nil
}

// DeviceTubes returns the nominal conducting-tube count of every
// transistor of the cell, PUN devices first then PDN, in
// instantiation order — the per-device exposure the variation yield
// composition multiplies over. CMOS devices report 0 (no tubes).
func (l *Library) DeviceTubes(c *Cell) []int {
	out := make([]int, 0, len(c.Gate.PUN.Devices)+len(c.Gate.PDN.Devices))
	for _, d := range c.Gate.PUN.Devices {
		out = append(out, l.fetFor("probe", network.PFET, d.Width*c.Drive).Tubes)
	}
	for _, d := range c.Gate.PDN.Devices {
		out = append(out, l.fetFor("probe", network.NFET, d.Width*c.Drive).Tubes)
	}
	return out
}

// InputCap estimates the capacitance presented by one input pin of the
// cell: the sum of the gate capacitances of the devices it controls.
func (l *Library) InputCap(c *Cell, input string) float64 {
	total := 0.0
	for _, d := range append(append([]network.Device{}, c.Gate.PUN.Devices...), c.Gate.PDN.Devices...) {
		if d.Gate != input {
			continue
		}
		typ := network.NFET
		if d.Type == network.PFET {
			typ = network.PFET
		}
		total += l.fetFor("probe", typ, d.Width*c.Drive).CGate
	}
	return total
}

// Area returns the assembled cell area in λ² for the given scheme (CMOS
// always uses scheme 1, its conventional arrangement).
func (l *Library) Area(c *Cell, s layout.Scheme) float64 {
	if l.Tech == rules.CMOS {
		s = layout.Scheme1
	}
	return c.Layout.Assemble(s).Area()
}
