// Package report renders experiment results as fixed-width tables and
// ASCII plots, so every table and figure of the paper can be regenerated
// as text from the benchmark harness.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a fixed-width text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Format writes the table.
func (t *Table) Format(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintln(w, t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Format(&b)
	return b.String()
}

// Series is a named (x, y) sequence for plotting.
type Series struct {
	Name string
	X, Y []float64
}

// ASCIIPlot renders one series as a crude scatter/line plot — enough to
// eyeball the shape of Fig 7 in a terminal.
func ASCIIPlot(w io.Writer, s Series, cols, rows int) {
	if len(s.X) == 0 || cols < 8 || rows < 4 {
		fmt.Fprintln(w, "(empty plot)")
		return
	}
	minX, maxX := minMax(s.X)
	minY, maxY := minMax(s.Y)
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", cols))
	}
	for i := range s.X {
		cx := int(math.Round((s.X[i] - minX) / (maxX - minX) * float64(cols-1)))
		cy := int(math.Round((s.Y[i] - minY) / (maxY - minY) * float64(rows-1)))
		grid[rows-1-cy][cx] = '*'
	}
	if s.Name != "" {
		fmt.Fprintln(w, s.Name)
	}
	fmt.Fprintf(w, "%8.3f +%s\n", maxY, string(grid[0]))
	for i := 1; i < rows-1; i++ {
		fmt.Fprintf(w, "%8s |%s\n", "", string(grid[i]))
	}
	fmt.Fprintf(w, "%8.3f +%s\n", minY, string(grid[rows-1]))
	fmt.Fprintf(w, "%8s  %-8.3g%s%8.3g\n", "", minX,
		strings.Repeat(" ", max(0, cols-16)), maxX)
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Gain formats a ratio like "4.20x".
func Gain(v float64) string { return fmt.Sprintf("%.2fx", v) }

// Pct formats a fraction as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }
