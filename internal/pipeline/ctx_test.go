package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	_, err := MapCtx(ctx, 4, make([]int, 100), func(i int, _ int) (int, error) {
		ran.Add(1)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d items ran under a pre-cancelled context", n)
	}
}

func TestMapCtxMidRunCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	_, err := MapCtx(ctx, 1, make([]int, 100), func(i int, _ int) (int, error) {
		if i == 10 {
			cancel()
		}
		ran.Add(1)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 11 {
		t.Fatalf("ran %d items, want 11 (cancel stops dispatch)", n)
	}
}

func TestMapCtxErrorBeatsCancellation(t *testing.T) {
	// A genuine failure at a lower index than the first cancelled item
	// must win error reporting.
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	_, err := MapCtx(ctx, 1, make([]int, 10), func(i int, _ int) (int, error) {
		if i == 2 {
			cancel()
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestCacheDoCtxPreCancelled(t *testing.T) {
	c := NewCacheStore(NewMemory(0))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.DoCodecCtx(ctx, "k", nil, func() (any, error) { return 1, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c.Len() != 0 {
		t.Fatalf("cache holds %d entries after cancelled Do, want 0", c.Len())
	}
}

func TestCacheDoCtxWaiterAbandons(t *testing.T) {
	c := NewCacheStore(NewMemory(0))
	block := make(chan struct{})
	started := make(chan struct{})
	go func() {
		c.DoCodecCtx(context.Background(), "k", nil, func() (any, error) {
			close(started)
			<-block
			return 42, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.DoCodecCtx(ctx, "k", nil, func() (any, error) { return 0, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	close(block)
	// The computation still completes and is served to later callers.
	v, cached, err := c.DoCodecCtx(context.Background(), "k", nil, func() (any, error) { return 0, fmt.Errorf("must not run") })
	if err != nil || !cached || v.(int) != 42 {
		t.Fatalf("post-abandon Do = (%v, %v, %v), want (42, true, nil)", v, cached, err)
	}
}

func TestCacheDoCtxCancelledFnNotCached(t *testing.T) {
	c := NewCacheStore(NewMemory(0))
	ctx, cancel := context.WithCancel(context.Background())
	_, _, err := c.DoCodecCtx(ctx, "k", nil, func() (any, error) {
		cancel()
		return nil, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c.Len() != 0 {
		t.Fatalf("cancelled computation left %d cache entries, want 0", c.Len())
	}
	// A retry with a live context computes fresh.
	v, cached, err := c.DoCodecCtx(context.Background(), "k", nil, func() (any, error) { return "fresh", nil })
	if err != nil || cached || v.(string) != "fresh" {
		t.Fatalf("retry = (%v, %v, %v), want (fresh, false, nil)", v, cached, err)
	}
}

func TestCacheBoundEvictsOldest(t *testing.T) {
	c := NewCacheStore(NewMemory(2))
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("k%d", i)
		if _, _, err := c.DoCodecCtx(context.Background(), k, nil, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("bounded cache holds %d entries, want 2", n)
	}
	// The newest entries survive; the oldest were evicted.
	v, cached, err := c.DoCodecCtx(context.Background(), "k4", nil, func() (any, error) { return -1, nil })
	if err != nil || !cached || v.(int) != 4 {
		t.Fatalf("k4 = (%v, %v, %v), want cached 4", v, cached, err)
	}
	if _, cached, _ := c.DoCodecCtx(context.Background(), "k0", nil, func() (any, error) { return 100, nil }); cached {
		t.Fatal("k0 should have been evicted")
	}
}

func TestGraphRunCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cache := NewCacheStore(NewMemory(0))
	g := NewGraph(cache, 2)
	var ran atomic.Int32
	g.AddFunc("a", "key/a", nil, func(map[string]any) (any, error) {
		ran.Add(1)
		return 1, nil
	})
	g.AddFunc("b", "key/b", []string{"a"}, func(map[string]any) (any, error) {
		ran.Add(1)
		return 2, nil
	})
	_, err := g.RunCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d stages ran under a pre-cancelled context", n)
	}
	if cache.Len() != 0 {
		t.Fatalf("cancelled graph left %d cache entries, want 0", cache.Len())
	}
}

func TestGraphRunCtxMidRunCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cache := NewCacheStore(NewMemory(0))
	g := NewGraph(cache, 1)
	g.AddFunc("a", "key/a", nil, func(map[string]any) (any, error) {
		cancel() // cancel while the first stage is in flight
		return 1, nil
	})
	var bRan atomic.Bool
	g.AddFunc("b", "key/b", []string{"a"}, func(map[string]any) (any, error) {
		bRan.Store(true)
		return 2, nil
	})
	_, err := g.RunCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if bRan.Load() {
		t.Fatal("dependent stage ran after cancellation")
	}
	// The in-flight stage completed: its result is cached, the dependent
	// never produced a partial entry.
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1 (the completed stage)", cache.Len())
	}
	// A rerun with a live context resumes from the cached prefix.
	g2 := NewGraph(cache, 1)
	g2.AddFunc("a", "key/a", nil, func(map[string]any) (any, error) { return 0, fmt.Errorf("must be cached") })
	g2.AddFunc("b", "key/b", []string{"a"}, func(map[string]any) (any, error) { return 2, nil })
	res, err := g2.RunCtx(context.Background())
	if err != nil {
		t.Fatalf("rerun failed: %v", err)
	}
	if !res["a"].Cached || res["b"].Value.(int) != 2 {
		t.Fatalf("rerun: a cached=%v, b=%v; want cached prefix + fresh b", res["a"].Cached, res["b"].Value)
	}
}
