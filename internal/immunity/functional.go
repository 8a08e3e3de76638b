package immunity

import (
	"context"
	"fmt"
	"math/rand"

	"cnfetdk/internal/cnt"
	"cnfetdk/internal/geom"
	"cnfetdk/internal/layout"
)

// CellChecker verifies full-cell functionality under concrete tube
// populations: both that no mispositioned tube corrupts the logic (the
// immunity property) and that the surviving aligned tubes still realize
// every intended transition (drive exists).
type CellChecker struct {
	Cell *layout.Cell
	pun  *Checker
	pdn  *Checker
}

// NewCellChecker builds checkers for both networks of a cell.
func NewCellChecker(c *layout.Cell) *CellChecker {
	inputs := c.Gate.Inputs
	return &CellChecker{
		Cell: c,
		pun:  NewChecker(c.PUN, c.Gate.PUN, inputs),
		pdn:  NewChecker(c.PDN, c.Gate.PDN, inputs),
	}
}

// PUN returns the pull-up network checker.
func (cc *CellChecker) PUN() *Checker { return cc.pun }

// PDN returns the pull-down network checker.
func (cc *CellChecker) PDN() *Checker { return cc.pdn }

// OutputState is the electrical state of the cell output for one vector.
type OutputState int

// Output states.
const (
	OutFloat OutputState = iota
	OutLow
	OutHigh
	OutShort
)

// String names the output state.
func (s OutputState) String() string {
	switch s {
	case OutFloat:
		return "float"
	case OutLow:
		return "0"
	case OutHigh:
		return "1"
	case OutShort:
		return "short"
	}
	return "?"
}

// FunctionalReport is the outcome of simulating a cell with a concrete
// tube population.
type FunctionalReport struct {
	Functional bool
	// Failures lists, per failing input vector, what the output did.
	Failures []VectorFailure
}

// VectorFailure describes one failing input vector.
type VectorFailure struct {
	Vector   int
	Expected bool
	Got      OutputState
}

// String renders the failure.
func (f VectorFailure) String() string {
	return fmt.Sprintf("vector %b: expected %v, output %s", f.Vector, f.Expected, f.Got)
}

// Functional simulates the cell's truth table under separate tube
// populations for the PUN and PDN regions (tube coordinates are local to
// each network's geometry). For every input vector the output must be
// strongly driven to the intended level: no float, no VDD-GND fight.
func (cc *CellChecker) Functional(punTubes, pdnTubes []cnt.Tube) FunctionalReport {
	inputs := cc.Cell.Gate.Inputs
	want := cc.Cell.Gate.OutputTable()

	punSpans := collectSpans(cc.pun, punTubes)
	pdnSpans := collectSpans(cc.pdn, pdnTubes)

	rep := FunctionalReport{Functional: true}
	rows := 1 << len(inputs)
	for v := 0; v < rows; v++ {
		up := netsConnected(punSpans, "VDD", "OUT", inputs, v, cc.pun)
		down := netsConnected(pdnSpans, "OUT", "GND", inputs, v, cc.pdn)
		var got OutputState
		switch {
		case up && down:
			got = OutShort
		case up:
			got = OutHigh
		case down:
			got = OutLow
		default:
			got = OutFloat
		}
		expected := want.Get(v)
		ok := (expected && got == OutHigh) || (!expected && got == OutLow)
		if !ok {
			rep.Functional = false
			rep.Failures = append(rep.Failures, VectorFailure{Vector: v, Expected: expected, Got: got})
		}
	}
	return rep
}

func collectSpans(c *Checker, tubes []cnt.Tube) []CondSpan {
	var out []CondSpan
	for _, t := range tubes {
		out = append(out, c.CondSpans(t.Line, t.Metallic)...)
	}
	return out
}

// netsConnected evaluates whether nets a and b connect through any chain of
// conducting tube spans under input vector v. Contacts of the same net are
// implicitly connected (metal).
func netsConnected(spans []CondSpan, a, b string, inputs []string, v int, c *Checker) bool {
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		if parent[x] == "" || parent[x] == x {
			parent[x] = x
			return x
		}
		r := find(parent[x])
		parent[x] = r
		return r
	}
	union := func(x, y string) {
		rx, ry := find(x), find(y)
		if rx != ry {
			parent[rx] = ry
		}
	}
	for _, sp := range spans {
		if c.cubeTable(sp.Cube).Get(v) {
			union(sp.NetA, sp.NetB)
		}
	}
	return find(a) == find(b)
}

// FunctionalYield runs trials independent population draws over both
// network regions and returns the fraction of functional cells — the
// experiment behind Fig 2's vulnerable-vs-immune comparison.
func (cc *CellChecker) FunctionalYield(trials int, params cnt.Params, rng *rand.Rand) float64 {
	good := 0
	for i := 0; i < trials; i++ {
		punTubes := cnt.Generate(grow(cc.Cell.PUN.BBox), params, rng)
		pdnTubes := cnt.Generate(grow(cc.Cell.PDN.BBox), params, rng)
		if cc.Functional(punTubes, pdnTubes).Functional {
			good++
		}
	}
	return float64(good) / float64(trials)
}

// grow pads a region slightly so tubes can enter at an angle.
func grow(r geom.Rect) geom.Rect {
	return geom.R(r.Min.X-r.W()/4, r.Min.Y-r.H()/4, r.Max.X+r.W()/4, r.Max.Y+r.H()/4)
}

// VerifyImmunity is the one-call verdict used by tests and the CLI: a
// deterministic critical-line certificate for both networks of a cell.
// A cancelled ctx stops the enumeration and returns ctx.Err().
func VerifyImmunity(ctx context.Context, c *layout.Cell) (pun, pdn Report, err error) {
	cc := NewCellChecker(c)
	if pun, err = cc.pun.CriticalLines(ctx); err != nil {
		return Report{}, Report{}, err
	}
	if pdn, err = cc.pdn.CriticalLines(ctx); err != nil {
		return Report{}, Report{}, err
	}
	return pun, pdn, nil
}
