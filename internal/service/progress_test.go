package service

import (
	"sync"
	"testing"
)

func TestProgressConcurrent(t *testing.T) {
	var p Progress
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.AddTotal(100)
			for j := 0; j < 100; j++ {
				p.ItemDone(j%10 == 0, 1, 2)
			}
		}()
	}
	wg.Wait()
	want := ProgressSnapshot{Total: 800, Done: 800, Failed: 80, CachedStages: 800, TotalStages: 1600}
	if got := p.Snapshot(); got != want {
		t.Fatalf("snapshot = %+v, want %+v", got, want)
	}
}
