package cnfetdk_test

// Race-focused determinism tests for the staged pipeline engine: run with
// `go test -race` to exercise the concurrent library build, the parallel
// characterization sweep and the sharded Monte Carlo immunity checker,
// and assert that every result is bit-identical regardless of the worker
// count driving it.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cnfetdk/internal/cells"
	"cnfetdk/internal/cnt"
	"cnfetdk/internal/flow"
	"cnfetdk/internal/geom"
	"cnfetdk/internal/immunity"
	"cnfetdk/internal/layout"
	"cnfetdk/internal/liberty"
	"cnfetdk/internal/logic"
	"cnfetdk/internal/network"
	"cnfetdk/internal/pipeline"
	"cnfetdk/internal/rules"
)

var workerSweep = []int{1, 2, 3, 8}

// libFingerprint renders a library into a stable byte string: every cell
// name with its layout geometry and area.
func libFingerprint(t *testing.T, lib *cells.Library) string {
	t.Helper()
	out := ""
	for _, name := range lib.Names() {
		c := lib.MustGet(name)
		out += fmt.Sprintf("%s pun=%v pdn=%v area=%.6f\n",
			name, c.Layout.PUN.BBox, c.Layout.PDN.BBox, lib.Area(c, layout.Scheme1))
	}
	return out
}

func TestLibraryBuildDeterministicAcrossWorkers(t *testing.T) {
	for _, tech := range []rules.Tech{rules.CNFET, rules.CMOS} {
		var want string
		for _, w := range workerSweep {
			lib, err := cells.NewLibraryOpts(tech, cells.BuildOptions{Workers: w})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tech, w, err)
			}
			got := libFingerprint(t, lib)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("%s: library built with %d workers differs from 1 worker", tech, w)
			}
		}
	}
}

// TestDatasheetDeterministicAcrossWorkers characterizes every cell's
// reference point from a worker pool sharing one library: rows must
// match the sequential datasheet at any pool width.
func TestDatasheetDeterministicAcrossWorkers(t *testing.T) {
	lib, err := cells.NewLibrary(rules.CNFET)
	if err != nil {
		t.Fatal(err)
	}
	slews, loads := []float64{cells.DefaultSlewS}, []float64{lib.ReferenceLoad()}
	datasheet := func(workers int) ([][][]cells.Timing, error) {
		return pipeline.Map(workers, lib.Names(), func(_ int, name string) ([][]cells.Timing, error) {
			return lib.Characterize(lib.MustGet(name), "A", slews, loads)
		})
	}
	seq, err := datasheet(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerSweep[1:] {
		par, err := datasheet(w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("datasheet with %d workers differs from sequential", w)
		}
	}
}

func TestLibertyCharacterizeDeterministicAcrossWorkers(t *testing.T) {
	lib, err := cells.NewLibrary(rules.CNFET)
	if err != nil {
		t.Fatal(err)
	}
	// A subset keeps the sweep fast while still spanning multiple cells
	// and multi-input arcs.
	keep := map[string]bool{"INV_1X": true, "NAND2_1X": true, "AOI21_1X": true}
	filter := func(n string) bool { return keep[n] }
	seq, err := liberty.Characterize(context.Background(), lib, nil, filter, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := liberty.Characterize(context.Background(), lib, nil, filter, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("liberty model with 8 workers differs from sequential")
	}
}

// reportBytes renders a Report byte-for-byte, including violation order.
func reportBytes(r immunity.Report) string { return fmt.Sprintf("%#v", r) }

func TestMonteCarloBitIdenticalAcrossWorkers(t *testing.T) {
	for _, f := range []struct {
		name  string
		style layout.Style
	}{{"compact", layout.StyleCompact}, {"vulnerable", layout.StyleVulnerable}} {
		g, err := network.NewGate("AB", logic.MustParse("AB"), 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := layout.Generate("AB", g, f.style, geom.Lambda(4), rules.Default65nm(rules.CNFET))
		if err != nil {
			t.Fatal(err)
		}
		ch := immunity.NewChecker(c.PUN, c.Gate.PUN, c.Gate.Inputs)
		var want string
		for _, w := range workerSweep {
			rep := ch.MonteCarloWorkers(2000, 15, rand.New(rand.NewSource(42)), w)
			got := reportBytes(rep)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("%s: Monte Carlo report with %d workers differs from 1 worker", f.name, w)
			}
		}
	}
}

func TestCheckPopulationBitIdenticalAcrossWorkers(t *testing.T) {
	g, err := network.NewGate("AB", logic.MustParse("AB"), 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := layout.Generate("AB", g, layout.StyleVulnerable, geom.Lambda(4), rules.Default65nm(rules.CNFET))
	if err != nil {
		t.Fatal(err)
	}
	ch := immunity.NewChecker(c.PUN, c.Gate.PUN, c.Gate.Inputs)
	params := cnt.DefaultParams()
	params.MisalignedFrac = 0.3
	params.PitchNM = 15
	tubes := cnt.Generate(c.PUN.BBox, params, rand.New(rand.NewSource(7)))
	if len(tubes) == 0 {
		t.Fatal("population generator returned no tubes")
	}
	want := reportBytes(ch.CheckPopulationWorkers(tubes, 1))
	for _, w := range workerSweep[1:] {
		if got := reportBytes(ch.CheckPopulationWorkers(tubes, w)); got != want {
			t.Fatalf("population report with %d workers differs from sequential", w)
		}
	}
}

// TestFlowGraphCachedRerun runs the full-adder flow twice through one kit
// and asserts the second run is served from the stage cache with an
// identical result.
func TestFlowGraphCachedRerun(t *testing.T) {
	if testing.Short() {
		t.Skip("full flow in -short mode")
	}
	kit, err := flow.NewKit()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := kit.RunFullAdder()
	if err != nil {
		t.Fatal(err)
	}
	filled := kit.CacheLen()
	if filled == 0 {
		t.Fatal("flow run populated no cache entries")
	}
	r2, err := kit.RunFullAdder()
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("cached rerun must return the memoized result")
	}
	if kit.CacheLen() != filled {
		t.Fatalf("rerun grew the cache: %d -> %d entries", filled, kit.CacheLen())
	}
}
