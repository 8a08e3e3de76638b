package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"cnfetdk/internal/flow"
)

// shardSpec is a 12-point cross product exercising three axes.
func shardSpec() Spec {
	return Spec{
		Name: "shards",
		Base: flow.Request{
			Techs:    []string{"cnfet"},
			Analyses: []flow.Analysis{flow.AnalysisArea, flow.AnalysisImmunity},
			MCTubes:  8,
		},
		Axes: Axes{
			Circuits:   []string{"mux2", "dec2"},
			Placements: []string{"rows", "shelves"},
			Seeds:      []int64{1, 2, 3},
		},
	}
}

// TestSlicePartitionReproducesExpand asserts the fabric's core sharding
// invariant: concatenating the expansions of any partition of windows
// reproduces the unwindowed expansion exactly, global indices included.
func TestSlicePartitionReproducesExpand(t *testing.T) {
	specs := map[string]Spec{
		"cross": shardSpec(),
		"zip": {
			Base: flow.Request{Techs: []string{"cnfet"}, Analyses: []flow.Analysis{flow.AnalysisArea}},
			Axes: Axes{
				Circuits:   []string{"mux2", "dec2", "fulladder"},
				Placements: []string{"rows", "shelves", "rows"},
			},
			Zip: true,
		},
		"single-point": {
			Base: flow.Request{Circuit: "mux2", Techs: []string{"cnfet"}, Analyses: []flow.Analysis{flow.AnalysisArea}},
		},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			full, err := spec.Expand()
			if err != nil {
				t.Fatal(err)
			}
			for _, chunk := range []int{1, 2, 3, 5, len(full)} {
				var got []Point
				for off := 0; off < len(full); off += chunk {
					count := min(chunk, len(full)-off)
					shard := spec.Slice(off, count)
					if n, err := shard.NumPoints(); err != nil || n != count {
						t.Fatalf("chunk %d: shard [%d,%d) NumPoints = %d, %v", chunk, off, off+count, n, err)
					}
					pts, err := shard.Expand()
					if err != nil {
						t.Fatalf("chunk %d: expanding shard at %d: %v", chunk, off, err)
					}
					got = append(got, pts...)
				}
				if !reflect.DeepEqual(got, full) {
					t.Fatalf("chunk %d: concatenated shard expansions differ from the full expansion", chunk)
				}
			}
		})
	}
}

// TestSliceDoesNotMutateReceiver: Slice windows a copy; the original spec
// (and a shard sliced from an already-sliced value) always address the
// full index space.
func TestSliceDoesNotMutateReceiver(t *testing.T) {
	spec := shardSpec()
	shard := spec.Slice(4, 3)
	if spec.Window != nil {
		t.Fatal("Slice mutated the receiver's window")
	}
	if shard.Window == nil || shard.Window.Offset != 4 || shard.Window.Count != 3 {
		t.Fatalf("shard window = %+v", shard.Window)
	}
	// Re-slicing composes from the full space, not the shard's window.
	again := shard.Slice(0, 2)
	pts, err := again.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Index != 0 {
		t.Fatalf("re-sliced shard starts at global index %d, want 0", pts[0].Index)
	}
}

// TestWindowJSONRoundTrip: shard specs serialize with the window intact
// and re-marshal to identical bytes (the fabric ships them over HTTP).
func TestWindowJSONRoundTrip(t *testing.T) {
	shard := shardSpec().Slice(6, 4)
	b1, err := json.Marshal(shard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b1), `"window":{"offset":6,"count":4}`) {
		t.Fatalf("marshaled shard lacks the window: %s", b1)
	}
	var back Spec
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, shard) {
		t.Fatalf("round-tripped shard differs:\n got %+v\nwant %+v", back, shard)
	}
	b2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("re-marshaled shard bytes differ:\n%s\n%s", b1, b2)
	}
}

func TestWindowBoundsValidation(t *testing.T) {
	spec := shardSpec() // 12 points
	for _, w := range []Window{
		{Offset: -1, Count: 2},
		{Offset: 0, Count: -1},
		{Offset: 10, Count: 3},
		{Offset: 13, Count: 0},
	} {
		s := spec
		s.Window = &w
		if _, err := s.NumPoints(); err == nil {
			t.Errorf("window %+v: NumPoints accepted an out-of-space window", w)
		}
		if _, err := s.Expand(); err == nil {
			t.Errorf("window %+v: Expand accepted an out-of-space window", w)
		}
	}
	// An empty window at the end of the space is legal (a zero-point shard).
	s := spec
	s.Window = &Window{Offset: 12, Count: 0}
	if n, err := s.NumPoints(); err != nil || n != 0 {
		t.Fatalf("empty trailing window: n=%d err=%v", n, err)
	}
}

// TestWindowCapsByShardSize: Admit counts a sharded spec by its window
// size, so small leases of a big sweep pass worker admission.
func TestWindowCapsByShardSize(t *testing.T) {
	spec := shardSpec()
	if _, err := spec.Admit(4); !errors.Is(err, ErrTooManyPoints) {
		t.Fatalf("12-point spec within a 4-point limit: err = %v, want ErrTooManyPoints", err)
	}
	if n, err := spec.Slice(8, 4).Admit(4); n != 4 || err != nil {
		t.Fatalf("4-point shard of the spec = %d, %v; want 4 points admitted", n, err)
	}
}

// TestAssembleMatchesRun: merging externally-partitioned point results
// reproduces the single-process report byte for byte, whatever order the
// points arrive in.
func TestAssembleMatchesRun(t *testing.T) {
	kit := testKit(t)
	spec := shardSpec()
	rep, err := Run(context.Background(), kit, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}

	// Deliver the points in a scrambled order, as lease completions would.
	shuffled := make([]PointResult, 0, len(rep.Points))
	for i := len(rep.Points) - 1; i >= 0; i -= 2 {
		shuffled = append(shuffled, rep.Points[i])
	}
	for i := len(rep.Points) - 2; i >= 0; i -= 2 {
		shuffled = append(shuffled, rep.Points[i])
	}
	merged, err := Assemble(spec, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	got, err := merged.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("assembled canonical report differs from Run's:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	if merged.Trace != nil {
		t.Fatal("Assemble set a trace; that is the caller's concern")
	}
}

func TestAssembleRejectsBadPointSets(t *testing.T) {
	spec := shardSpec()
	pts, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	results := make([]PointResult, len(pts))
	for i, p := range pts {
		results[i] = PointResult{Index: p.Index, ID: p.ID, Params: p.Params}
	}

	if _, err := Assemble(spec.Slice(0, 4), results[:4]); err == nil {
		t.Error("Assemble accepted a windowed spec")
	}
	if _, err := Assemble(spec, results[:len(results)-1]); err == nil {
		t.Error("Assemble accepted a short point set")
	}
	dup := append([]PointResult(nil), results...)
	dup[3].Index = 5
	if _, err := Assemble(spec, dup); err == nil {
		t.Error("Assemble accepted a duplicate index")
	}
	out := append([]PointResult(nil), results...)
	out[0].Index = len(results)
	if _, err := Assemble(spec, out); err == nil {
		t.Error("Assemble accepted an out-of-space index")
	}
}
