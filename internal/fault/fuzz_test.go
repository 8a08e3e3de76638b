package fault

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzParsePlan holds the plan decoder to its contract on arbitrary
// bytes: ParsePlan fails with a fault: error, or returns a plan that New
// compiles or refuses with a fault: error, and nothing panics. An
// accepted plan re-encodes to JSON that parses back to the same plan, so
// a schedule logged in a verdict replays. The seed corpus is
// testdata/fuzz/FuzzParsePlan.
func FuzzParsePlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "fault: ") {
				t.Fatalf("ParsePlan error outside the fault: namespace: %v", err)
			}
			return
		}
		inj, err := New(p)
		if err != nil && !strings.HasPrefix(err.Error(), "fault: ") {
			t.Fatalf("New error outside the fault: namespace: %v", err)
		}
		if err == nil && inj == nil {
			t.Fatal("New compiled the plan to a nil injector")
		}
		blob, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParsePlan(blob)
		if err != nil || !reflect.DeepEqual(back, p) {
			t.Fatalf("plan does not round-trip: %+v -> %s -> %+v, %v", p, blob, back, err)
		}
	})
}
