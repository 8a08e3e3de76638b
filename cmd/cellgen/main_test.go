package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cnfetdk/internal/gdsii"
)

// TestCellGDSCarriesDopingAndPins streams NAND2 through -gds and reads
// it back: both scheme structures must carry the n/p doping layers and
// a pin label per input, as the flow's placement export writes them.
func TestCellGDSCarriesDopingAndPins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nand2.gds")
	smp := sampling{tubes: 100, trials: 5, angle: 15, seed: 1}
	if err := describeCell(context.Background(), io.Discard, "NAND2", 4, path, smp); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lib, err := gdsii.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"NAND2_scheme1", "NAND2_scheme2"} {
		s := lib.Find(name)
		if s == nil {
			t.Fatalf("missing structure %s", name)
		}
		layers := map[int16]bool{}
		for _, b := range s.Boundaries {
			layers[b.Layer] = true
		}
		for _, want := range []int16{gdsii.LayerCNT, gdsii.LayerNDope, gdsii.LayerPDope} {
			if !layers[want] {
				t.Errorf("%s: no boundary on layer %d", name, want)
			}
		}
		labels := map[string]bool{}
		for _, tx := range s.Texts {
			if tx.Layer == gdsii.LayerPin {
				labels[tx.S] = true
			}
		}
		for _, pin := range []string{"A", "B"} {
			if !labels[pin] {
				t.Errorf("%s: no pin label %q (labels %v)", name, pin, labels)
			}
		}
	}
}

// The Fig 2 table: only the vulnerable layout fails its certificate,
// loses tubes to Monte Carlo and loses functional yield, whether the
// cell is named by expression or by its Table 1 name.
func TestDescribeCellFig2(t *testing.T) {
	for _, cell := range []string{"AB", "NAND2"} {
		var buf bytes.Buffer
		smp := sampling{tubes: 500, trials: 5, angle: 15, seed: 1}
		if err := describeCell(context.Background(), &buf, cell, 4, "", smp); err != nil {
			t.Fatal(err)
		}
		rows := map[string][]string{}
		for _, line := range strings.Split(buf.String(), "\n") {
			if f := strings.Fields(line); len(f) > 1 {
				rows[f[0]] = f
			}
		}
		for _, style := range []string{"etched", "compact"} {
			f := rows[style]
			if len(f) < 3 || f[len(f)-3] != "IMMUNE" || f[len(f)-2] != "0.00%" || f[len(f)-1] != "100.00%" {
				t.Errorf("%s %s row = %q, want IMMUNE 0.00%% 100.00%%\n%s", cell, style, f, buf.String())
			}
		}
		f := rows["vulnerable"]
		if len(f) < 4 || f[len(f)-3] != "violations" || f[len(f)-2] == "0.00%" || f[len(f)-1] != "0.00%" {
			t.Errorf("%s vulnerable row = %q, want violations, a fail rate and 0.00%% yield\n%s", cell, f, buf.String())
		}
	}
}

// Bad user input is an error before any output: no panic, no
// DRC-violating layout.
func TestDescribeCellRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		cell string
		size int
	}{
		{"A+", 4},     // unparsable expression
		{"NAND3", 0},  // zero width
		{"NAND3", -3}, // negative width
	} {
		var buf bytes.Buffer
		smp := sampling{tubes: 100, trials: 5, angle: 15, seed: 1}
		if err := describeCell(context.Background(), &buf, tc.cell, tc.size, "", smp); err == nil {
			t.Errorf("describeCell(%q, %d) = nil, want an error", tc.cell, tc.size)
		}
		if buf.Len() != 0 {
			t.Errorf("%q size %d: wrote output before rejecting:\n%s", tc.cell, tc.size, buf.String())
		}
	}
}

// Bad sampling flags are an error before any output: no NaN yield, no
// fail rate from zero samples.
func TestDescribeCellRejectsBadSampling(t *testing.T) {
	for _, tc := range []struct {
		tubes, trials int
	}{
		{100, 0}, // no yield trials
		{0, 5},   // no Monte Carlo tubes
		{-1, 5},
	} {
		var buf bytes.Buffer
		smp := sampling{tubes: tc.tubes, trials: tc.trials, angle: 15, seed: 1}
		if err := describeCell(context.Background(), &buf, "AB", 4, "", smp); err == nil {
			t.Errorf("describeCell(tubes %d, trials %d) = nil, want an error", tc.tubes, tc.trials)
		}
		if buf.Len() != 0 {
			t.Errorf("tubes %d, trials %d: wrote output before rejecting:\n%s", tc.tubes, tc.trials, buf.String())
		}
	}
}
