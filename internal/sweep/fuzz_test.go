package sweep

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzSpecAdmit holds admission to its contract on arbitrary spec JSON,
// decoded strictly as the daemon decodes it: Admit(64) never panics and
// never changes the spec; an admitted spec expands to exactly the
// admitted count of points, with consecutive global indices and
// distinct IDs; and for an unwindowed spec, Slice(0,k) followed by
// Slice(k,n-k) expands to the same points at k = 0, n/2 and n. The seed
// corpus is testdata/fuzz/FuzzSpecAdmit.
func FuzzSpecAdmit(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		before, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		n, err := spec.Admit(64)
		after, merr := json.Marshal(spec)
		if merr != nil || !bytes.Equal(before, after) {
			t.Fatalf("Admit changed the spec:\n%s\n%s", before, after)
		}
		if err != nil {
			return
		}
		pts, err := spec.Expand()
		if err != nil {
			t.Fatalf("admitted spec does not expand: %v", err)
		}
		if len(pts) != n {
			t.Fatalf("admitted %d points, expanded %d", n, len(pts))
		}
		lo := 0
		if spec.Window != nil {
			lo = spec.Window.Offset
		}
		ids := map[string]bool{}
		for i, p := range pts {
			if p.Index != lo+i {
				t.Fatalf("point %d carries index %d, want %d", i, p.Index, lo+i)
			}
			if ids[p.ID] {
				t.Fatalf("two points share the ID %q", p.ID)
			}
			ids[p.ID] = true
		}
		if spec.Window != nil {
			return
		}
		for _, k := range []int{0, n / 2, n} {
			first, rest := spec.Slice(0, k), spec.Slice(k, n-k)
			head, err := first.Expand()
			if err != nil {
				t.Fatalf("Slice(0,%d): %v", k, err)
			}
			tail, err := rest.Expand()
			if err != nil {
				t.Fatalf("Slice(%d,%d): %v", k, n-k, err)
			}
			if got := append(head, tail...); !reflect.DeepEqual(got, pts) {
				t.Fatalf("slices at %d expand to other points than the whole spec", k)
			}
		}
	})
}
