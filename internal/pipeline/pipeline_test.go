package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderAndParallelism(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 7, 32} {
		out, err := MapCtx(context.Background(), workers, items, func(i, v int) (int, error) { return v * v, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d]=%d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapErrorLowestIndex(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	_, err := MapCtx(context.Background(), 4, items, func(i, v int) (int, error) {
		if v%2 == 1 {
			return 0, fmt.Errorf("odd %d", v)
		}
		return v, nil
	})
	if err == nil || !strings.Contains(err.Error(), "item 1") {
		t.Fatalf("want error from item 1, got %v", err)
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := MapCtx(context.Background(), 8, nil, func(i, v int) (int, error) { return v, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty map: %v %v", out, err)
	}
}

func TestPoolBounds(t *testing.T) {
	p := NewPool(3)
	var cur, peak atomic.Int64
	var mu sync.Mutex
	for i := 0; i < 50; i++ {
		p.Go(func() {
			n := cur.Add(1)
			mu.Lock()
			if n > peak.Load() {
				peak.Store(n)
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			cur.Add(-1)
		})
	}
	p.Wait()
	if got := peak.Load(); got > 3 {
		t.Fatalf("pool ran %d tasks concurrently, bound is 3", got)
	}
}

func TestCacheMemoizesAndSingleflights(t *testing.T) {
	c := NewCache(NewMemory(0), nil)
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.DoCodecCtx(context.Background(), "k", nil, func() (any, error) {
				calls.Add(1)
				time.Sleep(5 * time.Millisecond)
				return 42, nil
			})
			if err != nil || v.(int) != 42 {
				t.Errorf("Do: %v %v", v, err)
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("function ran %d times, want 1 (singleflight)", n)
	}
	_, cached, _ := c.DoCodecCtx(context.Background(), "k", nil, func() (any, error) { return 0, nil })
	if !cached {
		t.Fatal("second Do must be served from cache")
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.Len())
	}
	if st := c.Stats(); st.Disk != nil || st.Mem.Hits != 1 {
		t.Fatalf("stats = %+v, want one memory hit and no disk tier", st)
	}
}

func TestCacheDoesNotCacheErrors(t *testing.T) {
	c := NewCache(NewMemory(0), nil)
	calls := 0
	fail := errors.New("boom")
	for i := 0; i < 2; i++ {
		_, cached, err := c.DoCodecCtx(context.Background(), "k", nil, func() (any, error) { calls++; return nil, fail })
		if !errors.Is(err, fail) || cached {
			t.Fatalf("attempt %d: cached=%v err=%v", i, cached, err)
		}
	}
	if calls != 2 {
		t.Fatalf("failed computation ran %d times, want 2 (errors not cached)", calls)
	}
}

// TestCacheConcurrentFailureRetry covers the waiter-of-a-failed-entry
// path: goroutines that wait on an in-flight computation that errors must
// retry cleanly (no unlock-of-unlocked-mutex, no lost error).
func TestCacheConcurrentFailureRetry(t *testing.T) {
	c := NewCache(NewMemory(0), nil)
	fail := errors.New("boom")
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _, _ = c.DoCodecCtx(context.Background(), "k", nil, func() (any, error) {
			close(started)
			<-release
			return nil, fail
		})
	}()
	<-started
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Waiters observe the owner's failure, evict the dead
			// entry and recompute (also failing, here).
			_, cached, err := c.DoCodecCtx(context.Background(), "k", nil, func() (any, error) { return nil, fail })
			if err == nil || cached {
				t.Errorf("waiter got cached=%v err=%v, want fresh failure", cached, err)
			}
		}()
	}
	close(release)
	wg.Wait()
	// The key must be computable again once the failures drain.
	v, cached, err := c.DoCodecCtx(context.Background(), "k", nil, func() (any, error) { return 7, nil })
	if err != nil || cached || v.(int) != 7 {
		t.Fatalf("post-failure Do: v=%v cached=%v err=%v", v, cached, err)
	}
}

func TestKeyStableAndDistinct(t *testing.T) {
	if Key("a", 1, 2.5) != Key("a", 1, 2.5) {
		t.Fatal("Key must be deterministic")
	}
	if Key("a", "b") == Key("ab") {
		t.Fatal("Key must separate parts")
	}
	if Key(1) == Key(int64(1)) {
		t.Fatal("Key must distinguish types")
	}
}

func TestGraphTopologyAndCaching(t *testing.T) {
	cache := NewCache(NewMemory(0), nil)
	var order []string
	var mu sync.Mutex
	mark := func(name string) {
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
	}
	build := func() *Graph {
		g := NewGraph(cache, 4)
		g.Add(Stage{Name: "synth", Key: Key("synth"), Run: func(context.Context, map[string]any) (any, error) {
			mark("synth")
			return 10, nil
		}})
		g.Add(Stage{Name: "place", Deps: []string{"synth"}, Key: Key("place"), Run: func(_ context.Context, d map[string]any) (any, error) {
			mark("place")
			return d["synth"].(int) * 2, nil
		}})
		g.Add(Stage{Name: "sim", Deps: []string{"synth"}, Key: Key("sim"), Run: func(_ context.Context, d map[string]any) (any, error) {
			mark("sim")
			return d["synth"].(int) + 5, nil
		}})
		g.Add(Stage{Name: "gds", Deps: []string{"place", "sim"}, Key: Key("gds"), Run: func(_ context.Context, d map[string]any) (any, error) {
			mark("gds")
			return d["place"].(int) + d["sim"].(int), nil
		}})
		return g
	}
	res, err := build().RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v := res["gds"].Value.(int); v != 35 {
		t.Fatalf("gds = %d, want 35", v)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	if pos["synth"] > pos["place"] || pos["synth"] > pos["sim"] || pos["gds"] < pos["place"] || pos["gds"] < pos["sim"] {
		t.Fatalf("topological order violated: %v", order)
	}

	// Second run against the same cache: nothing recomputes.
	order = nil
	res2, err := build().RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 0 {
		t.Fatalf("cached rerun recomputed stages: %v", order)
	}
	for _, name := range []string{"synth", "place", "sim", "gds"} {
		if !res2[name].Cached {
			t.Fatalf("stage %s not served from cache", name)
		}
	}
}

func TestGraphFailurePropagation(t *testing.T) {
	g := NewGraph(nil, 2)
	ran := map[string]bool{}
	var mu sync.Mutex
	mark := func(n string) {
		mu.Lock()
		ran[n] = true
		mu.Unlock()
	}
	g.Add(Stage{Name: "a", Run: func(context.Context, map[string]any) (any, error) { mark("a"); return 1, nil }})
	g.Add(Stage{Name: "b", Deps: []string{"a"}, Run: func(context.Context, map[string]any) (any, error) {
		mark("b")
		return nil, errors.New("b exploded")
	}})
	g.Add(Stage{Name: "c", Deps: []string{"b"}, Run: func(context.Context, map[string]any) (any, error) { mark("c"); return 2, nil }})
	g.Add(Stage{Name: "d", Deps: []string{"c"}, Run: func(context.Context, map[string]any) (any, error) { mark("d"); return 3, nil }})
	g.Add(Stage{Name: "e", Deps: []string{"a"}, Run: func(context.Context, map[string]any) (any, error) { mark("e"); return 4, nil }})
	res, err := g.RunCtx(context.Background())
	if err == nil || !strings.Contains(err.Error(), `stage "b"`) {
		t.Fatalf("want error attributed to stage b, got %v", err)
	}
	if ran["c"] || ran["d"] {
		t.Fatal("dependents of a failed stage must not run")
	}
	if !ran["e"] {
		t.Fatal("independent branch must still run")
	}
	if res["d"].Err == nil {
		t.Fatal("transitive dependent must carry a skip error")
	}
}

func TestTraceRecords(t *testing.T) {
	tr := &Trace{}
	g := NewGraph(nil, 2).Trace(tr)
	g.Add(Stage{Name: "one", Run: func(context.Context, map[string]any) (any, error) { return 1, nil }})
	g.Add(Stage{Name: "two", Deps: []string{"one"}, Run: func(context.Context, map[string]any) (any, error) { return 2, nil }})
	if _, err := g.RunCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Reports()); got != 2 {
		t.Fatalf("trace has %d reports, want 2", got)
	}
	if s := tr.String(); !strings.Contains(s, "one") || !strings.Contains(s, "two") {
		t.Fatalf("trace render missing stages:\n%s", s)
	}
}

// TestGraphManyStagesNoDeadlock covers the scheduler-blocked-on-full-pool
// case: far more ready stages than workers.
func TestGraphManyStagesNoDeadlock(t *testing.T) {
	g := NewGraph(nil, 2)
	for i := 0; i < 64; i++ {
		g.Add(Stage{Name: fmt.Sprintf("s%d", i), Run: func(context.Context, map[string]any) (any, error) {
			time.Sleep(time.Millisecond)
			return nil, nil
		}})
	}
	if _, err := g.RunCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
}
