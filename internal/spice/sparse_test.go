package spice

import (
	"context"
	"strings"
	"sync"
	"testing"

	"cnfetdk/internal/device"
)

// testChain builds the standard two-inverter characterization-style
// chain used across the sparse tests, with a configurable load value so
// callers can produce structure-identical, value-distinct circuits.
func testChain(t *testing.T, loadF float64) *Circuit {
	t.Helper()
	c := New()
	c.AddV("vdd", "vdd", "0", DC(device.Vdd))
	c.AddV("vin", "n0", "0", Pulse{V0: 0, V1: device.Vdd, Delay: 20e-12, Rise: 5e-12, Fall: 5e-12, W: 100e-12, Period: 200e-12})
	addInverter(c, "i1", "n0", "n1", nfet(t), pfet(t))
	addInverter(c, "i2", "n1", "n2", nfet(t), pfet(t))
	c.AddC("cl", "n2", "0", loadF)
	return c
}

// TestBatchPlanSharedByteIdentical is the batch contract: a lane running
// with the shared symbolic plan must produce results byte-identical with
// an independent workspace that planned for itself. The plan depends
// only on topology, so sharing it cannot change a single bit.
func TestBatchPlanSharedByteIdentical(t *testing.T) {
	proto := testChain(t, 1e-15)
	const lanes = 4
	b, err := NewBatch(lanes, proto)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < lanes; i++ {
		loadF := 1e-15 * float64(i+1)
		rb, err := testChain(t, loadF).Transient(context.Background(), b.Lane(i), 200e-12, 400, allProbes(proto))
		if err != nil {
			t.Fatalf("lane %d: %v", i, err)
		}
		ri, err := testChain(t, loadF).Transient(context.Background(), &Workspace{}, 200e-12, 400, allProbes(proto))
		if err != nil {
			t.Fatalf("independent %d: %v", i, err)
		}
		for ni := range rb.V {
			for k := range rb.V[ni] {
				if rb.V[ni][k] != ri.V[ni][k] {
					t.Fatalf("lane %d node %d sample %d: batch %v independent %v — plan sharing changed bits",
						i, ni, k, rb.V[ni][k], ri.V[ni][k])
				}
			}
		}
	}
}

// TestBatchLanesConcurrent drives every lane from its own goroutine —
// the shared plan is read-only after NewBatch, so under the race
// detector this pins the immutability claim in the Batch docs.
func TestBatchLanesConcurrent(t *testing.T) {
	proto := testChain(t, 1e-15)
	const lanes = 4
	b, err := NewBatch(lanes, proto)
	if err != nil {
		t.Fatal(err)
	}
	finals := make([]float64, lanes)
	errs := make([]error, lanes)
	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := testChain(t, 1e-15).Transient(context.Background(), b.Lane(i), 200e-12, 400, Probes{Nodes: []string{"n2"}})
			if err != nil {
				errs[i] = err
				return
			}
			finals[i] = r.V[0][len(r.Times)-1]
		}(i)
	}
	wg.Wait()
	for i := 0; i < lanes; i++ {
		if errs[i] != nil {
			t.Fatalf("lane %d: %v", i, errs[i])
		}
		if finals[i] != finals[0] {
			t.Fatalf("lane %d final %v != lane 0 final %v on identical circuits", i, finals[i], finals[0])
		}
	}
}

// TestPlanReuseAcrossRuns pins the symbolic-reuse policy: repeated
// solves of the same topology keep the plan (even when element values
// change), and a topology change replans.
func TestPlanReuseAcrossRuns(t *testing.T) {
	ws := &Workspace{}
	probe := Probes{Nodes: []string{"n2"}}
	if _, err := testChain(t, 1e-15).Transient(context.Background(), ws, 200e-12, 100, probe); err != nil {
		t.Fatal(err)
	}
	p1 := ws.st.pl
	if p1 == nil {
		t.Fatal("sparse run left no plan on the workspace")
	}
	// Same structure, different load value: the plan must survive.
	if _, err := testChain(t, 4e-15).Transient(context.Background(), ws, 200e-12, 100, probe); err != nil {
		t.Fatal(err)
	}
	if ws.st.pl != p1 {
		t.Fatal("value-only change replanned; the symbolic plan should be reused")
	}
	// Different topology: extra element changes the pattern — replan.
	c := testChain(t, 1e-15)
	c.AddR("rx", "n1", "0", 1e6)
	if _, err := c.Transient(context.Background(), ws, 200e-12, 100, probe); err != nil {
		t.Fatal(err)
	}
	if ws.st.pl == p1 {
		t.Fatal("topology change kept the stale plan")
	}
}

// TestSparseStructurallySingularNamesUnknown: a system with no perfect
// structural matching (two voltage sources in parallel) must fail at
// plan time with an error naming the unpivotable unknown.
func TestSparseStructurallySingularNamesUnknown(t *testing.T) {
	c := New()
	c.AddV("v1", "a", "0", DC(1))
	c.AddV("v2", "a", "0", DC(1))
	_, err := c.OP()
	if err == nil {
		t.Fatal("parallel voltage sources solved; want structurally singular error")
	}
	if !strings.Contains(err.Error(), "structurally singular") {
		t.Fatalf("error %q does not identify the structural singularity", err)
	}
	if !strings.Contains(err.Error(), "source") && !strings.Contains(err.Error(), "node") {
		t.Fatalf("error %q does not name the unpivotable unknown", err)
	}
}

// TestSparseNumericSingularNamesUnknown: a floating resistor pair is
// structurally fine (full 2x2 diagonal block) but numerically singular;
// the factorization must report which unknown's pivot vanished. The test
// drives state.newton directly with the FET ties off — OP's gmin
// fallback would regularize the float and mask the error.
func TestSparseNumericSingularNamesUnknown(t *testing.T) {
	c := New()
	c.AddV("v1", "in", "0", DC(1))
	c.AddR("r1", "in", "0", 1e3)
	c.AddR("rf", "a", "b", 1e3) // floating: no DC path to the rest
	var ws Workspace
	s := &ws.st
	if err := s.init(c); err != nil {
		t.Fatal(err)
	}
	s.setGmin(0)
	err := s.newton()
	if err == nil {
		t.Fatal("floating node pair solved; want singular matrix error")
	}
	if !strings.Contains(err.Error(), "singular matrix at node") {
		t.Fatalf("error %q does not name the singular node", err)
	}
}
