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
			lib, err := cells.NewLibraryCtx(context.Background(), tech, cells.BuildOptions{Workers: w})
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
	lib, err := cells.NewLibraryCtx(context.Background(), rules.CNFET, cells.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	slews, loads := []float64{cells.DefaultSlewS}, []float64{lib.ReferenceLoad()}
	datasheet := func(workers int) ([][][]cells.Timing, error) {
		return pipeline.MapCtx(context.Background(), workers, lib.Names(), func(_ int, name string) ([][]cells.Timing, error) {
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
	lib, err := cells.NewLibraryCtx(context.Background(), rules.CNFET, cells.BuildOptions{})
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
			rep, err := ch.MonteCarloCtx(context.Background(), 2000, 15, rand.New(rand.NewSource(42)), w)
			if err != nil {
				t.Fatal(err)
			}
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

// TestFlowGraphCachedRerun runs the full-adder flow twice through one kit
// and asserts the second run is served from the stage cache with an
// identical result.
func TestFlowGraphCachedRerun(t *testing.T) {
	if testing.Short() {
		t.Skip("full flow in -short mode")
	}
	kit, err := flow.New(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s2, s1, err := runCaseStudy2(kit)
	if err != nil {
		t.Fatal(err)
	}
	filled := kit.CacheLen()
	if filled == 0 {
		t.Fatal("flow run populated no cache entries")
	}
	r2, r1, err := runCaseStudy2(kit)
	if err != nil {
		t.Fatal(err)
	}
	for i, pair := range [][2]*flow.Result{{s2, r2}, {s1, r1}} {
		first, again := pair[0], pair[1]
		for _, st := range again.Stages {
			if !st.Cached {
				t.Errorf("job %d: cached rerun recomputed stage %s", i, st.Stage)
			}
		}
		if !reflect.DeepEqual(first.Techs, again.Techs) || !reflect.DeepEqual(first.Gains, again.Gains) {
			t.Fatalf("job %d: cached rerun must return the memoized result", i)
		}
	}
	if kit.CacheLen() != filled {
		t.Fatalf("rerun grew the cache: %d -> %d entries", filled, kit.CacheLen())
	}
}
