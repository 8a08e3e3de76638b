package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cnfetdk/internal/sweep"
)

func TestAssembleSpecRejectsNonNumericTubes(t *testing.T) {
	_, err := assembleSpec(specFlags{circuits: "mux2", tubes: "16,many"})
	if err == nil || !strings.HasPrefix(err.Error(), "-tubes:") {
		t.Fatalf("-tubes 16,many: err = %v, want a -tubes error", err)
	}
}

// TestAssembleSpecSplitsTechSets: "/" separates technology sets and ","
// stays inside one set.
func TestAssembleSpecSplitsTechSets(t *testing.T) {
	spec, err := assembleSpec(specFlags{circuits: "mux2", techs: "cnfet/cnfet,cmos"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"cnfet", "cnfet,cmos"}; !reflect.DeepEqual(spec.Axes.TechSets, want) {
		t.Fatalf("tech sets = %q, want %q", spec.Axes.TechSets, want)
	}
}

// TestWriteCSVQuotesCommaCells: a comma-carrying tech set (or error)
// stays one column, so every row has the header's width.
func TestWriteCSVQuotesCommaCells(t *testing.T) {
	rep := &sweep.Report{Points: []sweep.PointResult{
		{Index: 0, ID: "techs=cnfet", Params: map[string]any{"techs": "cnfet"}},
		{Index: 1, ID: "techs=cnfet+cmos", Params: map[string]any{"techs": "cnfet,cmos"}, Error: "failed, twice"},
	}}
	path := filepath.Join(t.TempDir(), "points.csv")
	if err := writeCSV(path, rep); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"index", "id", "techs", "error"},
		{"0", "techs=cnfet", "cnfet", ""},
		{"1", "techs=cnfet+cmos", "cnfet,cmos", "failed, twice"},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("csv rows = %q, want %q", rows, want)
	}
}
