package liberty

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"cnfetdk/internal/cells"
	"cnfetdk/internal/logic"
	"cnfetdk/internal/rules"
)

// TestLUTInterp pins the lookup-table edge policy along the load axis
// of a one-row surface: flat below the first point, linear inside,
// linear extrapolation beyond the last.
func TestLUTInterp(t *testing.T) {
	sf := &Surface{
		SlewsS:   []float64{5},
		LoadsF:   []float64{1, 2, 4},
		DelayS:   [][]float64{{10, 14, 22}},
		OutSlewS: [][]float64{{1, 1, 1}},
	}
	cases := []struct{ load, want float64 }{
		{0.5, 10}, // clamp low
		{1, 10},
		{1.5, 12},
		{3, 18},
		{4, 22},
		{6, 30}, // linear extrapolation: slope 4 per unit
	}
	for _, c := range cases {
		if got := sf.Delay(5, c.load); got != c.want {
			t.Errorf("Delay(5, %v) = %v, want %v", c.load, got, c.want)
		}
		// One slew row: the slew axis is flat.
		if got := sf.Delay(50, c.load); got != c.want {
			t.Errorf("Delay(50, %v) = %v, want %v", c.load, got, c.want)
		}
	}
	var empty Surface
	if empty.Delay(5, 5) != 0 {
		t.Fatal("empty surface should return 0")
	}
}

func TestLibertyFunction(t *testing.T) {
	cases := map[string]string{
		"AB":         "!(A&B)",
		"A+B":        "!(A|B)",
		"AB+C":       "!(A&B|C)",
		"(A+B)C":     "!((A|B)&C)",
		"A'B":        "!(!A&B)",
		"(A+B)(C+D)": "!((A|B)&(C|D))",
	}
	for in, want := range cases {
		if got := libertyFunction(logic.MustParse(in)); got != want {
			t.Errorf("libertyFunction(%s) = %s, want %s", in, got, want)
		}
	}
}

func TestCharacterizeSubsetAndWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("spice characterization")
	}
	lib := cells.NewLibrary(rules.CNFET)
	keep := map[string]bool{"INV_1X": true, "NAND2_1X": true, "AOI21_1X": true}
	m, err := Characterize(context.Background(), lib, nil, func(n string) bool { return keep[n] }, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != 3 {
		t.Fatalf("cells = %d, want 3", len(m.Cells))
	}
	inv := m.Cells["INV_1X"]
	if inv == nil || len(inv.Arcs) != 1 {
		t.Fatalf("INV model malformed: %+v", inv)
	}
	// Delay must grow monotonically with load on every slew row.
	for _, row := range inv.Arcs[0].Surface.DelayS {
		for i := 1; i < len(row); i++ {
			if row[i] <= row[i-1] {
				t.Fatalf("delay not monotone in load: %v", row)
			}
		}
	}
	// AOI21 has three arcs (A, B, C).
	if got := len(m.Cells["AOI21_1X"].Arcs); got != 3 {
		t.Fatalf("AOI21 arcs = %d, want 3", got)
	}
	if m.Cells["AOI21_1X"].Function != "!(A&B|C)" {
		t.Fatalf("AOI21 function = %s", m.Cells["AOI21_1X"].Function)
	}

	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"library(cnfetdk_cnfet_65nm)",
		"lu_table_template(delay_vs_load)",
		"lu_table_template(delay_slew_load)",
		"variable_1 : input_net_transition",
		"cell(NAND2_1X)",
		`function : "!(A&B)"`,
		`related_pin : "A"`,
		"cell_rise(delay_slew_load)",
		"rise_transition(delay_slew_load)",
		"capacitance :",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("liberty output missing %q", want)
		}
	}
	// Balanced braces.
	if strings.Count(out, "{") != strings.Count(out, "}") {
		t.Fatal("unbalanced braces in liberty output")
	}
}

// TestCharacterizeRejectsBadLoadAxis is the regression test for an
// empty load axis: it used to come back as a nil grid and panic on the
// energy row; it is now a typed error.
func TestCharacterizeRejectsBadLoadAxis(t *testing.T) {
	lib := cells.NewLibrary(rules.CNFET)
	inv := func(n string) bool { return n == "INV_1X" }
	for _, loads := range [][]float64{{}, {0}, {1e-15, -1e-15}} {
		m, err := Characterize(context.Background(), lib, loads, inv, 1)
		if !errors.Is(err, cells.ErrBadAxis) || m != nil {
			t.Errorf("loads %v: got (%v, %v), want (nil, cells.ErrBadAxis)", loads, m, err)
		}
	}
}

func TestArcLookup(t *testing.T) {
	c := &CellModel{Arcs: []Arc{{Input: "A"}, {Input: "B"}}}
	if c.Arc("B") == nil || c.Arc("Z") != nil {
		t.Fatal("Arc lookup broken")
	}
}
