package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableFormat(t *testing.T) {
	tab := &Table{
		Title:   "Area comparison",
		Headers: []string{"Cell", "3λ", "4λ"},
	}
	tab.AddRow("NAND2", "17.7%", "15.1%")
	tab.AddRow("AOI21", "41.6%", "39.2%")
	out := tab.String()
	if !strings.Contains(out, "Area comparison") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[3], "NAND2") {
		t.Fatalf("row formatting: %q", lines[3])
	}
	// Columns aligned: header and row share the 2nd column offset.
	hIdx := strings.Index(lines[1], "3λ")
	rIdx := strings.Index(lines[3], "17.7%")
	if hIdx != rIdx {
		t.Fatalf("column misaligned: %d vs %d", hIdx, rIdx)
	}
}

func TestASCIIPlot(t *testing.T) {
	var buf bytes.Buffer
	s := Series{
		Name: "gain",
		X:    []float64{1, 2, 3, 4, 5},
		Y:    []float64{2.75, 3.4, 3.9, 4.1, 4.2},
	}
	ASCIIPlot(&buf, s, 40, 10)
	out := buf.String()
	if !strings.Contains(out, "*") {
		t.Fatal("plot has no points")
	}
	if !strings.Contains(out, "gain") {
		t.Fatal("plot missing name")
	}
}

func TestASCIIPlotDegenerate(t *testing.T) {
	var buf bytes.Buffer
	ASCIIPlot(&buf, Series{}, 40, 10)
	if !strings.Contains(buf.String(), "empty") {
		t.Fatal("empty series should say so")
	}
	// Constant series must not divide by zero.
	buf.Reset()
	ASCIIPlot(&buf, Series{X: []float64{1, 2}, Y: []float64{3, 3}}, 40, 10)
	if !strings.Contains(buf.String(), "*") {
		t.Fatal("constant series should still plot")
	}
}

func TestFormatHelpers(t *testing.T) {
	if Gain(4.2) != "4.20x" {
		t.Fatalf("Gain = %s", Gain(4.2))
	}
	if Pct(0.1667) != "16.67%" {
		t.Fatalf("Pct = %s", Pct(0.1667))
	}
}
