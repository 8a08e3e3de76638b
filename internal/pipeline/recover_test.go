package pipeline

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestGraphRecoversStagePanic(t *testing.T) {
	g := NewGraph(nil, 2)
	g.AddFunc("boom", "", nil, func(map[string]any) (any, error) { panic("kaboom") })
	g.AddFunc("after", "", []string{"boom"}, func(map[string]any) (any, error) { return 1, nil })
	results, err := g.RunCtx(context.Background())
	if err == nil || !errors.Is(err, ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Stage != "boom" || pe.Value != "kaboom" {
		t.Fatalf("panic error = %+v", pe)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
		t.Fatal("panic error carries no stack")
	}
	if results["after"].Err == nil {
		t.Fatal("dependent of a panicking stage ran")
	}
}

func TestCachedStagePanicSettlesWaiters(t *testing.T) {
	cache := NewCacheStore(NewMemory(0))
	release := make(chan struct{})
	g := NewGraph(cache, 1)
	g.AddFunc("boom", "shared-key", nil, func(map[string]any) (any, error) {
		<-release
		panic("cached kaboom")
	})

	// A concurrent waiter on the same key must settle with the panic
	// error, not hang on an orphaned in-flight entry.
	waiter := make(chan error, 1)
	go func() {
		_, _, err := cache.DoCodecCtx(context.Background(), "shared-key", nil, func() (any, error) {
			return nil, errors.New("waiter recomputed") // retry path after the panic
		})
		waiter <- err
	}()
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	if _, err := g.RunCtx(context.Background()); !errors.Is(err, ErrPanic) {
		t.Fatalf("graph err = %v", err)
	}
	select {
	case err := <-waiter:
		// Either outcome is sound: the waiter observed the settled
		// panic and retried (its own fn error) or arrived after
		// eviction and computed fresh.
		if err == nil {
			t.Fatal("waiter cached a panicked computation")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter hung on a panicked in-flight entry")
	}
}

func TestMapRecoversItemPanic(t *testing.T) {
	_, err := MapCtx(context.Background(), 4, []int{0, 1, 2, 3}, func(i int, v int) (int, error) {
		if v == 2 {
			panic(v)
		}
		return v, nil
	})
	if err == nil || !errors.Is(err, ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic", err)
	}
	// Inline single-worker path too.
	_, err = MapCtx(context.Background(), 1, []int{0}, func(int, int) (int, error) { panic("inline") })
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("inline err = %v", err)
	}
}

func TestStageWatchdog(t *testing.T) {
	g := NewGraph(nil, 2).StageTimeout(30 * time.Millisecond)
	g.Add(Stage{Name: "hang", RunCtx: func(ctx context.Context, _ map[string]any) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	g.AddFunc("fast", "", nil, func(map[string]any) (any, error) { return "ok", nil })
	results, err := g.RunCtx(context.Background())
	if err == nil || !errors.Is(err, ErrStageTimeout) {
		t.Fatalf("err = %v, want ErrStageTimeout", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("watchdog kill leaked context.DeadlineExceeded")
	}
	var ste *StageTimeoutError
	if !errors.As(err, &ste) || ste.Stage != "hang" {
		t.Fatalf("timeout error = %+v", ste)
	}
	if results["fast"].Err != nil || results["fast"].Value != "ok" {
		t.Fatalf("unrelated stage affected: %+v", results["fast"])
	}
}

func TestRunCancellationIsNotAWatchdogKill(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGraph(nil, 1).StageTimeout(time.Minute)
	g.Add(Stage{Name: "hang", RunCtx: func(sctx context.Context, _ map[string]any) (any, error) {
		<-sctx.Done()
		return nil, sctx.Err()
	}})
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err := g.RunCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if errors.Is(err, ErrStageTimeout) {
		t.Fatal("run cancellation misreported as a watchdog kill")
	}
}

func TestStageWithoutTimeoutGetsRunContext(t *testing.T) {
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "v")
	g := NewGraph(nil, 1)
	g.Add(Stage{Name: "probe", RunCtx: func(sctx context.Context, _ map[string]any) (any, error) {
		return sctx.Value(key{}), nil
	}})
	results, err := g.RunCtx(ctx)
	if err != nil || results["probe"].Value != "v" {
		t.Fatalf("RunCtx stage did not see the run context: %v %v", results["probe"].Value, err)
	}
}
