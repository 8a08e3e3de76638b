package coopt

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"cnfetdk/internal/flow"
	"cnfetdk/internal/sweep"
)

var (
	kitOnce sync.Once
	kitVal  *flow.Kit
	kitErr  error
)

func testKit(t testing.TB) *flow.Kit {
	t.Helper()
	kitOnce.Do(func() { kitVal, kitErr = flow.New(context.Background()) })
	if kitErr != nil {
		t.Fatal(kitErr)
	}
	return kitVal
}

func testSpec() Spec {
	// Small grid: 2 measured points x 2 pitches x 2 drives = 8
	// candidates, enough to exercise baseline extraction, rescaling,
	// and the Pareto filter without long transients.
	return Spec{
		Circuit:     "mux2",
		YieldTarget: 0.99,
		CountCVs:    []float64{0.1, 0.3},
		AlignmentPs: []float64{0.05},
		PitchesNM:   []float64{5, 13},
		Drives:      []float64{1, 2},
		VarSamples:  2,
		Seed:        1,
	}
}

func TestSearchFront(t *testing.T) {
	if testing.Short() {
		t.Skip("transient-heavy")
	}
	spec := testSpec()
	front, err := Search(context.Background(), KitRunner{Kit: testKit(t)}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if front.Evaluated != 8 {
		t.Fatalf("evaluated %d candidates, want 2x2x2 = 8", front.Evaluated)
	}
	if front.Feasible == 0 || len(front.Candidates) == 0 {
		t.Fatalf("front %d feasible / %d on front, want both > 0", front.Feasible, len(front.Candidates))
	}
	if front.Baseline.Devices <= 0 || front.Baseline.AreaLam2 <= 0 || front.Baseline.DelayS <= 0 {
		t.Fatalf("baseline %+v not populated from the measured sweep", front.Baseline)
	}
	for _, c := range front.Candidates {
		if c.Yield < spec.YieldTarget {
			t.Fatalf("front candidate %+v misses the yield target", c)
		}
		if c.TubesPerDevice < 1 || c.ProcessingCost < 0 || c.CircuitCost <= 0 {
			t.Fatalf("front candidate %+v has degenerate costs", c)
		}
	}
	// The front is Pareto-minimal and sorted by processing cost: no
	// candidate may dominate another, and circuit cost must fall as
	// processing cost rises.
	for i := 1; i < len(front.Candidates); i++ {
		a, b := front.Candidates[i-1], front.Candidates[i]
		if b.ProcessingCost < a.ProcessingCost {
			t.Fatalf("front not sorted by processing cost: %g after %g", b.ProcessingCost, a.ProcessingCost)
		}
		if b.ProcessingCost > a.ProcessingCost && b.CircuitCost >= a.CircuitCost {
			t.Fatalf("dominated candidate on the front: %+v vs %+v", a, b)
		}
	}
}

// TestSearchDeterministicAcrossWorkers is the contract the daemon and
// the fabric lean on: the canonical front is byte-identical no matter
// how the measured sweep was parallelized, and across reruns. Each
// worker count gets its own kit, so every search measures its points
// instead of reading the first search's cache.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("transient-heavy")
	}
	run := func(k *flow.Kit) []byte {
		front, err := Search(context.Background(), KitRunner{Kit: k}, testSpec())
		if err != nil {
			t.Fatal(err)
		}
		b, err := front.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	kits := map[int]*flow.Kit{}
	for _, w := range []int{1, 2, 8} {
		k, err := flow.New(context.Background(), flow.WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		kits[w] = k
	}
	ref := run(kits[1])
	for _, w := range []int{2, 8, 1} {
		if got := run(kits[w]); !bytes.Equal(got, ref) {
			t.Fatalf("front with %d workers differs from the single-worker run:\n%s\n%s", w, got, ref)
		}
	}
}

func TestSpecValidateAndDefaults(t *testing.T) {
	if err := (Spec{}).Admit(sweep.DefaultMaxPoints); err == nil {
		t.Fatal("empty spec (no circuit) must fail")
	}
	bad := []Spec{
		{Circuit: "mux2", YieldTarget: -0.1},
		{Circuit: "mux2", YieldTarget: 1.1},
		{Circuit: "mux2", PitchesNM: []float64{0}},
		{Circuit: "mux2", CountCVs: []float64{-1}},
		{Circuit: "mux2", AlignmentPs: []float64{2}},
		{Circuit: "mux2", Drives: []float64{-1}},
		{Circuit: "mux2", DiameterSigmaNM: -1},
	}
	for _, s := range bad {
		if err := s.Admit(sweep.DefaultMaxPoints); err == nil {
			t.Errorf("spec %+v passed admission", s)
		}
	}
	// Admission runs the measured sweep's own: the default grid measures
	// 4 count CVs x 3 alignment probabilities, and the circuit must be in
	// the registry.
	if err := (Spec{Circuit: "mux2"}).Admit(12); err != nil {
		t.Fatalf("12-point measured sweep within a 12-point limit: %v", err)
	}
	if err := (Spec{Circuit: "mux2"}).Admit(11); !errors.Is(err, sweep.ErrTooManyPoints) {
		t.Fatalf("12-point measured sweep within an 11-point limit: err = %v, want ErrTooManyPoints", err)
	}
	if err := (Spec{Circuit: "nonesuch"}).Admit(sweep.DefaultMaxPoints); !errors.Is(err, flow.ErrUnknownCircuit) {
		t.Fatalf("unknown circuit: err = %v, want ErrUnknownCircuit", err)
	}

	n, err := (Spec{Circuit: "mux2"}).normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.YieldTarget != DefaultYieldTarget {
		t.Fatalf("defaulted yield target %g, want %g", n.YieldTarget, DefaultYieldTarget)
	}
	if len(n.PitchesNM) == 0 || len(n.CountCVs) == 0 || len(n.AlignmentPs) == 0 || len(n.Drives) == 0 {
		t.Fatalf("normalized spec left a grid axis empty: %+v", n)
	}

	ss := n.SweepSpec()
	if ss.Base.Circuit != "mux2" || len(ss.Axes.CountCVs) != len(n.CountCVs) || len(ss.Axes.AlignmentPs) != len(n.AlignmentPs) {
		t.Fatalf("sweep spec %+v does not mirror the coopt grid", ss)
	}
	for _, a := range ss.Base.Analyses {
		if a == flow.AnalysisImmunity {
			return
		}
	}
	t.Fatal("measured sweep must request immunity (yield inputs)")
}

func TestParetoMin2(t *testing.T) {
	pts := []Candidate{
		{Index: 0, ProcessingCost: 1, CircuitCost: 3},
		{Index: 1, ProcessingCost: 2, CircuitCost: 2},
		{Index: 2, ProcessingCost: 2, CircuitCost: 4}, // dominated by 1
		{Index: 3, ProcessingCost: 3, CircuitCost: 1},
		{Index: 4, ProcessingCost: 4, CircuitCost: 1}, // dominated by 3
	}
	front := paretoMin2(pts)
	if len(front) != 3 {
		t.Fatalf("front has %d points, want 3: %+v", len(front), front)
	}
	for _, c := range front {
		if c.Index == 2 || c.Index == 4 {
			t.Fatalf("dominated candidate %d survived", c.Index)
		}
	}
}
