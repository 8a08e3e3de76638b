package main

import (
	"os"
	"path/filepath"
	"testing"

	"cnfetdk/internal/gdsii"
)

// TestCellGDSCarriesDopingAndPins streams NAND2 through -gds and reads
// it back: both scheme structures must carry the n/p doping layers and
// a pin label per input, as the flow's placement export writes them.
func TestCellGDSCarriesDopingAndPins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nand2.gds")
	if err := describeCell("NAND2", 4, path); err != nil {
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
