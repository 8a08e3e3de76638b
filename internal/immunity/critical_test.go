package immunity

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"cnfetdk/internal/cells"
	"cnfetdk/internal/geom"
	"cnfetdk/internal/layout"
	"cnfetdk/internal/rules"
)

// criticalLinesReference is the certificate enumeration as it stood
// before CriticalLines replayed repeated corner pairs: every occurrence of
// every corner pair checks its four perturbed lines afresh. It is the
// oracle the deduplicated loop must match report for report.
func criticalLinesReference(ctx context.Context, c *Checker) (Report, error) {
	var pts []geom.FPoint
	add := func(r geom.Rect) {
		for _, p := range r.Corners() {
			pts = append(pts, p.ToF())
		}
	}
	for _, e := range c.Geom.Elements {
		switch e.Kind {
		case layout.ElemContact, layout.ElemGate, layout.ElemEtch:
			add(e.Rect)
		}
	}
	for _, r := range c.Geom.Active {
		add(r)
	}
	rep := Report{}
	const eps = 1e-4
	offs := []float64{-eps, eps}
	for i := 0; i < len(pts); i++ {
		if err := ctx.Err(); err != nil {
			return Report{}, err
		}
		for j := i + 1; j < len(pts); j++ {
			a, b := pts[i], pts[j]
			if math.Abs(a.X-b.X) < 1e-12 {
				continue // vertical line cannot cross contact columns in sequence
			}
			for _, da := range offs {
				for _, db := range offs {
					line := extendLine(geom.Ln(a.X, a.Y+da, b.X, b.Y+db), c.Geom.BBox)
					vs := c.CheckTube(line, false)
					rep.TubesChecked++
					if len(vs) > 0 {
						rep.BadTubes++
						if len(rep.Violations) < 32 {
							rep.Violations = append(rep.Violations, vs...)
						}
					}
				}
			}
		}
	}
	return rep, nil
}

// matchReference asserts that CriticalLines and the reference enumeration
// return deeply equal reports for one network, each on its own checker,
// and returns the number of lines checked.
func matchReference(t *testing.T, name string, ch *Checker) int {
	t.Helper()
	got := criticalLines(t, NewChecker(ch.Geom, ch.Net, ch.Inputs))
	want, err := criticalLinesReference(context.Background(), NewChecker(ch.Geom, ch.Net, ch.Inputs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: CriticalLines = (%d lines, %d bad, %d kept), reference (%d lines, %d bad, %d kept)",
			name, got.TubesChecked, got.BadTubes, len(got.Violations),
			want.TubesChecked, want.BadTubes, len(want.Violations))
	}
	return want.TubesChecked
}

// matchCellReference runs matchReference on both networks of a cell.
func matchCellReference(t *testing.T, name string, c *layout.Cell) int {
	t.Helper()
	cc := NewCellChecker(c)
	return matchReference(t, name+" PUN", cc.PUN()) + matchReference(t, name+" PDN", cc.PDN())
}

// Every cell of the CNFET library certifies exactly as the reference
// enumeration does.
func TestCriticalLinesMatchReferenceLibrary(t *testing.T) {
	lib := cells.NewLibrary(rules.CNFET)
	lines := 0
	for _, name := range lib.Names() {
		lines += matchCellReference(t, name, lib.MustGet(name).Layout)
	}
	t.Logf("%d cells, %d lines", len(lib.Names()), lines)
}

// The compact, etched and vulnerable layouts of the library's pull-down
// functions (Table 1's cells plus AOI31) at Table 1's widths, immune and
// violating alike, certify exactly as the reference enumeration does.
func TestCriticalLinesMatchReferenceTable1(t *testing.T) {
	styles := []layout.Style{layout.StyleCompact, layout.StyleEtched, layout.StyleVulnerable}
	lines := 0
	for _, spec := range cells.DefaultSpecs() {
		for _, style := range styles {
			for _, w := range []int{3, 4, 6, 10} {
				c := buildCell(t, spec.PullDown, style, w)
				lines += matchCellReference(t, fmt.Sprintf("%s %v %dλ", spec.Name, style, w), c)
			}
		}
	}
	t.Logf("%d layouts, %d lines", len(cells.DefaultSpecs())*len(styles)*4, lines)
}

// The four injected faults, whose certificates retain violations, match
// the reference enumeration violation for violation.
func TestCriticalLinesMatchReferenceMutants(t *testing.T) {
	for _, m := range faultMutants {
		matchReference(t, m.name, m.build(t))
	}
}
