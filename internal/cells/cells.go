// Package cells builds the CNFET standard-cell library of the design kit
// (Section IV.A): every cell is specified by its pull-down function,
// generated as a misaligned-CNT-immune compact layout, instantiable into
// the spice engine at any drive strength, and characterized (delay,
// energy) against a reference load. A CMOS twin of the library supports
// the paper's technology comparison at the shared 65nm node.
package cells

import (
	"context"
	"fmt"
	"sort"
	"time"

	"cnfetdk/internal/device"
	"cnfetdk/internal/drc"
	"cnfetdk/internal/geom"
	"cnfetdk/internal/layout"
	"cnfetdk/internal/logic"
	"cnfetdk/internal/network"
	"cnfetdk/internal/pipeline"
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

// Library is a technology-bound cell collection.
type Library struct {
	Tech  rules.Tech
	Rules rules.Rules
	FO4   device.FO4Params
	// UnitW is the unit transistor width (4λ at this node).
	UnitW geom.Coord
	cells map[string]*Cell
}

// BuildOptions tunes library construction.
type BuildOptions struct {
	// Workers is the worker-pool width for the layout/DRC fan-out;
	// <= 0 selects pipeline.DefaultWorkers (one per CPU). Workers == 1
	// is the sequential reference path.
	Workers int
	// Trace, when set, receives per-stage timing reports.
	Trace *pipeline.Trace
}

// NewLibraryCtx builds the library for a technology. CNFET cells use the
// paper's compact immune layouts; CMOS cells use the same Euler-row
// generator under CMOS rules. The build runs through the staged
// pipeline: gate synthesis runs first (cheap, shared across drive
// strengths), then every (cell, drive) layout generation plus its
// design-rule check fans out across opts.Workers. The resulting library
// is independent of the worker count. Once ctx is cancelled no further
// (cell, drive) jobs are dispatched and the build returns ctx.Err().
func NewLibraryCtx(ctx context.Context, tech rules.Tech, opts BuildOptions) (*Library, error) {
	lib := &Library{
		Tech:  tech,
		Rules: rules.Default65nm(tech),
		FO4:   device.DefaultFO4(),
		UnitW: geom.Lambda(4),
		cells: map[string]*Cell{},
	}
	specs := DefaultSpecs()

	// Stage 1: gate synthesis. One gate per spec, shared read-only by
	// every drive strength (layout.Generate clones the SP trees it
	// scales, so concurrent generation off one gate is safe).
	t0 := time.Now()
	gates := make([]*network.Gate, len(specs))
	for i, spec := range specs {
		g, err := network.NewGate(spec.Name, logic.MustParse(spec.PullDown), 1)
		if err != nil {
			return nil, fmt.Errorf("cells: %s: %w", spec.Name, err)
		}
		gates[i] = g
	}
	opts.Trace.Add(pipeline.StageReport{Stage: "gates", Dur: time.Since(t0), Items: len(specs)})

	// Stage 2: layout generation + DRC, one job per (spec, drive).
	type job struct {
		spec  int
		drive float64
	}
	var jobs []job
	for i, spec := range specs {
		for _, d := range spec.Drives {
			jobs = append(jobs, job{spec: i, drive: d})
		}
	}
	t0 = time.Now()
	built, err := pipeline.MapCtx(ctx, opts.Workers, jobs, func(_ int, j job) (*Cell, error) {
		spec := specs[j.spec]
		unit := geom.Coord(float64(lib.UnitW) * j.drive)
		lay, err := layout.Generate(spec.Name, gates[j.spec], layout.StyleCompact, unit, lib.Rules)
		if err != nil {
			return nil, fmt.Errorf("%s layout: %w", spec.Name, err)
		}
		c := &Cell{
			Name: spec.Name, Drive: j.drive, Tech: tech,
			Gate: gates[j.spec], Layout: lay, Rules: lib.Rules,
		}
		if vs := drc.CheckCell(lay); len(vs) > 0 {
			return nil, fmt.Errorf("%s drc: %d violations, first: %s", c.FullName(), len(vs), vs[0])
		}
		return c, nil
	})
	if err != nil {
		return nil, fmt.Errorf("cells: %w", err)
	}
	opts.Trace.Add(pipeline.StageReport{Stage: "layout+drc", Dur: time.Since(t0), Items: len(jobs)})
	for _, c := range built {
		lib.cells[c.FullName()] = c
	}
	return lib, nil
}

// Get returns a cell by full name (e.g. "INV_4X").
func (l *Library) Get(full string) (*Cell, error) {
	c, ok := l.cells[full]
	if !ok {
		return nil, fmt.Errorf("cells: no cell %q", full)
	}
	return c, nil
}

// MustGet panics on a missing cell; for static flows.
func (l *Library) MustGet(full string) *Cell {
	c, err := l.Get(full)
	if err != nil {
		panic(err)
	}
	return c
}

// Names returns the full names of all cells, sorted.
func (l *Library) Names() []string {
	out := make([]string, 0, len(l.cells))
	for n := range l.cells {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

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
