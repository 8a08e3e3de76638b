// Package liberty characterizes the standard-cell library into NLDM-style
// lookup tables and writes industry-standard Liberty (.lib) files — the
// artifact that lets the CNFET library drop into the conventional
// synthesis flow, which is the point of the paper's Section IV
// ("incorporate minimal changes to the conventional design flow").
package liberty

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"cnfetdk/internal/cells"
	"cnfetdk/internal/layout"
	"cnfetdk/internal/logic"
	"cnfetdk/internal/pipeline"
)

// Surface is a two-dimensional NLDM table over (input slew, output
// load): the arc's delay and output transition time at each grid point.
// Lookups interpolate bilinearly, flat below the first point and
// linearly extrapolated beyond the last on both axes (loads beyond the
// characterized range are common at high fanout).
type Surface struct {
	SlewsS   []float64
	LoadsF   []float64
	DelayS   [][]float64 // [slew][load]
	OutSlewS [][]float64 // [slew][load]
}

// Delay evaluates the arc delay at an input slew and output load.
func (s *Surface) Delay(slewS, loadF float64) float64 {
	return interp2(s.SlewsS, s.LoadsF, s.DelayS, slewS, loadF)
}

// OutSlew evaluates the output transition time at an input slew and
// output load — the value STA propagates as the next stage's input slew.
func (s *Surface) OutSlew(slewS, loadF float64) float64 {
	return interp2(s.SlewsS, s.LoadsF, s.OutSlewS, slewS, loadF)
}

// bracket locates x on the axis: the segment index and the fractional
// position within it (0 below the first point — flat extrapolation;
// > 1 beyond the last — linear extrapolation from the final segment).
func bracket(xs []float64, x float64) (int, float64) {
	if len(xs) < 2 || x <= xs[0] {
		return 0, 0
	}
	for i := 1; i < len(xs); i++ {
		if x <= xs[i] {
			return i - 1, (x - xs[i-1]) / (xs[i] - xs[i-1])
		}
	}
	n := len(xs)
	return n - 2, (x - xs[n-2]) / (xs[n-1] - xs[n-2])
}

func interp2(xs, ys []float64, z [][]float64, x, y float64) float64 {
	if len(z) == 0 {
		return 0
	}
	i, fx := bracket(xs, x)
	j, fy := bracket(ys, y)
	row := func(r []float64) float64 {
		if len(r) == 0 {
			return 0
		}
		if len(r) < 2 {
			return r[0]
		}
		return r[j] + fy*(r[j+1]-r[j])
	}
	v0 := row(z[i])
	if len(z) < 2 {
		return v0
	}
	return v0 + fx*(row(z[i+1])-v0)
}

// Arc is one characterized timing arc (input pin -> OUT).
type Arc struct {
	Input string
	// Surface is the arc's slew-aware NLDM grid.
	Surface *Surface
}

// CellModel is one library cell's characterization.
type CellModel struct {
	Name      string
	AreaLam2  float64
	Function  string // Liberty boolean function of OUT
	InputCapF map[string]float64
	Arcs      []Arc
	EnergyJ   float64 // per-cycle switching energy at the reference load
}

// Model is the characterized library.
type Model struct {
	Name     string
	Tech     string
	Cells    map[string]*CellModel
	LoadsF   []float64
	SlewsS   []float64
	RefLoadF float64
}

// DefaultLoads returns the characterization load sweep: multiples of the
// library's reference (FO4-equivalent) load.
func DefaultLoads(ref float64) []float64 {
	return []float64{ref * 0.25, ref * 0.5, ref, ref * 2, ref * 4}
}

// DefaultSlews returns the characterization input-slew sweep. The first
// point is the 5 ps reference edge the cell energy is read at; the
// later points cover the degraded edges deep logic cones actually see.
func DefaultSlews() []float64 {
	return []float64{cells.DefaultSlewS, 20e-12, 60e-12}
}

// Characterize measures every cell and timing arc of the library over
// the (input slew × output load) NLDM grid with the transistor-level
// simulator. loads nil selects DefaultLoads; cellFilter restricts which
// cells to characterize (nil = all). The per-arc grids fan out across
// workers (<= 0 selects one per CPU); the assembled model is
// deterministic at any worker count. Once ctx is cancelled no further
// arc grids are dispatched, the running transients stop, and
// Characterize fails with an error wrapping ctx's.
func Characterize(ctx context.Context, lib *cells.Library, loads []float64, cellFilter func(string) bool, workers int) (*Model, error) {
	ref := lib.ReferenceLoad()
	if loads == nil {
		loads = DefaultLoads(ref)
	}
	slews := DefaultSlews()
	m := &Model{
		Name:     "cnfetdk_" + strings.ToLower(lib.Tech.String()) + "_65nm",
		Tech:     lib.Tech.String(),
		Cells:    map[string]*CellModel{},
		LoadsF:   loads,
		SlewsS:   slews,
		RefLoadF: ref,
	}

	// One job per timing arc, in deterministic (cell, input) order.
	type arcJob struct {
		cell  string
		input string
		first bool // first input of the cell carries the energy row
	}
	var jobs []arcJob
	for _, name := range lib.Names() {
		if cellFilter != nil && !cellFilter(name) {
			continue
		}
		c := lib.MustGet(name)
		cm := &CellModel{
			Name:      name,
			AreaLam2:  lib.Area(c, layout.Scheme1),
			Function:  libertyFunction(c.Gate.PullDown),
			InputCapF: map[string]float64{},
		}
		for k, in := range c.Inputs() {
			cm.InputCapF[in] = lib.InputCap(c, in)
			jobs = append(jobs, arcJob{cell: name, input: in, first: k == 0})
		}
		m.Cells[name] = cm
	}

	type arcOut struct {
		arc     Arc
		energyJ float64
		hasE    bool
	}
	outs, err := pipeline.MapCtx(ctx, workers, jobs, func(_ int, j arcJob) (arcOut, error) {
		c := lib.MustGet(j.cell)
		out := arcOut{arc: Arc{Input: j.input}}
		grid, err := lib.Characterize(ctx, c, j.input, slews, loads)
		if err != nil {
			return out, fmt.Errorf("liberty: %s/%s: %w", j.cell, j.input, err)
		}
		sf := &Surface{
			SlewsS:   append([]float64(nil), slews...),
			LoadsF:   append([]float64(nil), loads...),
			DelayS:   make([][]float64, len(slews)),
			OutSlewS: make([][]float64, len(slews)),
		}
		for si, row := range grid {
			sf.DelayS[si] = make([]float64, len(loads))
			sf.OutSlewS[si] = make([]float64, len(loads))
			for li, t := range row {
				sf.DelayS[si][li] = t.DelayS
				sf.OutSlewS[si][li] = t.SlewOutS
			}
		}
		out.arc.Surface = sf
		// The cell energy is the first input's reference-load point of
		// the 5 ps row.
		for i, t := range grid[0] {
			if loads[i] == ref && j.first {
				out.energyJ = t.EnergyJ
				out.hasE = true
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	// Assemble in job order: arcs land in the same sequence the
	// sequential implementation produced.
	for i, j := range jobs {
		cm := m.Cells[j.cell]
		cm.Arcs = append(cm.Arcs, outs[i].arc)
		if outs[i].hasE {
			cm.EnergyJ = outs[i].energyJ
		}
	}
	return m, nil
}

// libertyFunction renders the cell output function (the complement of the
// pull-down expression) in Liberty syntax: out = !(f) with & | !.
func libertyFunction(f *logic.Expr) string {
	return "!(" + libertyExpr(f) + ")"
}

func libertyExpr(e *logic.Expr) string {
	switch e.Op {
	case logic.OpVar:
		return e.Name
	case logic.OpNot:
		return "!" + libertyExpr(e.Kids[0])
	case logic.OpAnd:
		parts := make([]string, len(e.Kids))
		for i, k := range e.Kids {
			s := libertyExpr(k)
			if k.Op == logic.OpOr {
				s = "(" + s + ")"
			}
			parts[i] = s
		}
		return strings.Join(parts, "&")
	case logic.OpOr:
		parts := make([]string, len(e.Kids))
		for i, k := range e.Kids {
			parts[i] = libertyExpr(k)
		}
		return strings.Join(parts, "|")
	}
	return "?"
}

// Arc returns the timing arc for an input pin (nil if absent).
func (c *CellModel) Arc(input string) *Arc {
	for i := range c.Arcs {
		if c.Arcs[i].Input == input {
			return &c.Arcs[i]
		}
	}
	return nil
}

// Write emits the model as a Liberty file. Units: 1ps time, 1fF load.
func (m *Model) Write(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "library(%s) {\n", m.Name)
	fmt.Fprintf(&b, "  comment : \"CNFET design kit, %s at the 65nm node\";\n", m.Tech)
	fmt.Fprintf(&b, "  time_unit : \"1ps\";\n")
	fmt.Fprintf(&b, "  capacitive_load_unit (1, ff);\n")
	fmt.Fprintf(&b, "  voltage_unit : \"1V\";\n")
	fmt.Fprintf(&b, "  nom_voltage : 1.0;\n")
	fmt.Fprintf(&b, "  lu_table_template(delay_vs_load) {\n")
	fmt.Fprintf(&b, "    variable_1 : total_output_net_capacitance;\n")
	fmt.Fprintf(&b, "    index_1 (\"%s\");\n", joinF(m.LoadsF, 1e15))
	fmt.Fprintf(&b, "  }\n")
	fmt.Fprintf(&b, "  lu_table_template(delay_slew_load) {\n")
	fmt.Fprintf(&b, "    variable_1 : input_net_transition;\n")
	fmt.Fprintf(&b, "    variable_2 : total_output_net_capacitance;\n")
	fmt.Fprintf(&b, "    index_1 (\"%s\");\n", joinF(m.SlewsS, 1e12))
	fmt.Fprintf(&b, "    index_2 (\"%s\");\n", joinF(m.LoadsF, 1e15))
	fmt.Fprintf(&b, "  }\n")

	names := make([]string, 0, len(m.Cells))
	for n := range m.Cells {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := m.Cells[n]
		fmt.Fprintf(&b, "  cell(%s) {\n", c.Name)
		fmt.Fprintf(&b, "    area : %.2f;\n", c.AreaLam2)
		ins := make([]string, 0, len(c.InputCapF))
		for in := range c.InputCapF {
			ins = append(ins, in)
		}
		sort.Strings(ins)
		for _, in := range ins {
			fmt.Fprintf(&b, "    pin(%s) {\n", in)
			fmt.Fprintf(&b, "      direction : input;\n")
			fmt.Fprintf(&b, "      capacitance : %.5f;\n", c.InputCapF[in]*1e15)
			fmt.Fprintf(&b, "    }\n")
		}
		fmt.Fprintf(&b, "    pin(OUT) {\n")
		fmt.Fprintf(&b, "      direction : output;\n")
		fmt.Fprintf(&b, "      function : \"%s\";\n", c.Function)
		for _, arc := range c.Arcs {
			fmt.Fprintf(&b, "      timing() {\n")
			fmt.Fprintf(&b, "        related_pin : \"%s\";\n", arc.Input)
			fmt.Fprintf(&b, "        timing_sense : negative_unate;\n")
			for _, kind := range []string{"cell_rise", "cell_fall"} {
				fmt.Fprintf(&b, "        %s(delay_slew_load) {\n", kind)
				fmt.Fprintf(&b, "          values (%s);\n", joinRows(arc.Surface.DelayS, 1e12))
				fmt.Fprintf(&b, "        }\n")
			}
			for _, kind := range []string{"rise_transition", "fall_transition"} {
				fmt.Fprintf(&b, "        %s(delay_slew_load) {\n", kind)
				fmt.Fprintf(&b, "          values (%s);\n", joinRows(arc.Surface.OutSlewS, 1e12))
				fmt.Fprintf(&b, "        }\n")
			}
			fmt.Fprintf(&b, "      }\n")
		}
		fmt.Fprintf(&b, "    }\n")
		fmt.Fprintf(&b, "  }\n")
	}
	fmt.Fprintf(&b, "}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func joinF(vs []float64, scale float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.4f", v*scale)
	}
	return strings.Join(parts, ", ")
}

// joinRows renders a 2-D table body: one quoted row per slew point, the
// Liberty multi-row values() syntax.
func joinRows(rows [][]float64, scale float64) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = "\"" + joinF(r, scale) + "\""
	}
	return strings.Join(parts, ", ")
}
