//go:build !race

package flow

import (
	"context"
	"testing"
)

// maxRenderAllocs bounds the allocations of rendering a warm mult8
// result into a reused buffer: the sorted key lists of the techs and
// gains maps, and nothing per instance delay, stage or byte.
const maxRenderAllocs = 2

// TestRenderResultAllocs pins the render of the jobs-warm mix's largest
// answer, mult8 area and sta on both technologies (1,776 instance
// delays). (Skipped under -race: the race runtime adds its own
// bookkeeping allocations.)
func TestRenderResultAllocs(t *testing.T) {
	k := kit(t)
	req := Request{Circuit: "mult8", Analyses: []Analysis{AnalysisArea, AnalysisSTA}}
	res, err := k.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := res.AppendIndent(nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		buf, _ = res.AppendIndent(buf[:0])
	})
	if allocs > maxRenderAllocs {
		t.Errorf("rendering a warm mult8 result allocates %.1f objects, want at most %d", allocs, maxRenderAllocs)
	}
	t.Logf("%d bytes, %.1f allocs", len(buf), allocs)
}
