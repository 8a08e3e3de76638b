package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMemoryLRUEvictsLeastRecentlyUsed(t *testing.T) {
	m := NewMemory(2)
	m.Save("a", nil, 1)
	m.Save("b", nil, 2)
	// Touch a so b becomes the least recently used entry; a FIFO bound
	// (the old engine) would evict a here instead.
	if _, ok := m.Probe("a"); !ok {
		t.Fatal("a must be resident")
	}
	m.Save("c", nil, 3)
	if _, ok := m.Probe("b"); ok {
		t.Fatal("b was recently-unused and must be evicted")
	}
	if _, ok := m.Probe("a"); !ok {
		t.Fatal("recently-used a must survive")
	}
	if _, ok := m.Probe("c"); !ok {
		t.Fatal("newest c must survive")
	}
	st := m.Stats().Mem
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction over 2 resident entries", st)
	}
}

func TestMemoryCounters(t *testing.T) {
	m := NewMemory(0)
	m.Probe("missing")
	m.Save("k", nil, 7)
	m.Probe("k")
	st := m.Stats().Mem
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if err := m.Purge(); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Fatal("purge must empty the tier")
	}
}

func TestJSONCodecRoundTrip(t *testing.T) {
	c := JSONCodec[map[string]float64]("test/map@v1")
	in := map[string]float64{"n1": 1.25e-18, "n2": 0.1 + 0.2}
	blob, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	got := out.(map[string]float64)
	for k, v := range in {
		if got[k] != v {
			t.Fatalf("%s: %v != %v (floats must round-trip exactly)", k, got[k], v)
		}
	}
	if _, err := c.Encode("wrong type"); err == nil {
		t.Fatal("encoding a mistyped value must fail")
	}
}

func TestRawCodecAndRegistry(t *testing.T) {
	c := RegisterCodec(RawCodec("test/raw@v1"))
	blob, err := c.Encode([]byte{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Decode(blob)
	if err != nil || len(v.([]byte)) != 3 {
		t.Fatalf("raw round trip = (%v, %v)", v, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	RegisterCodec(RawCodec("test/raw@v1"))
}

// memBlob is an in-memory BlobStore double standing in for the disk tier.
type memBlob struct {
	mu      sync.Mutex
	entries map[string]memBlobEntry
	hits    atomic.Int64
	misses  atomic.Int64
	puts    atomic.Int64
}

type memBlobEntry struct {
	codec string
	data  []byte
}

func newMemBlob() *memBlob { return &memBlob{entries: map[string]memBlobEntry{}} }

func (b *memBlob) Get(key string) (string, []byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[key]
	if !ok {
		b.misses.Add(1)
		return "", nil, false
	}
	b.hits.Add(1)
	return e.codec, e.data, true
}

func (b *memBlob) Put(key, codec string, data []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.entries[key] = memBlobEntry{codec: codec, data: data}
	b.puts.Add(1)
}

func (b *memBlob) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.entries)
}

func (b *memBlob) Stats() TierStats {
	return TierStats{Entries: int64(b.Len()), Hits: b.hits.Load(), Misses: b.misses.Load(), Puts: b.puts.Load()}
}

func (b *memBlob) Purge() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.entries = map[string]memBlobEntry{}
	return nil
}

func TestTieredWriteThroughAndWarmStart(t *testing.T) {
	disk := newMemBlob()
	codec := JSONCodec[int]("test/int-tiered@v1")
	cacheA := NewCacheStore(NewTiered(NewMemory(0), disk))

	calls := 0
	v, cached, err := cacheA.DoCodecCtx(t.Context(), "k", codec, func() (any, error) { calls++; return 41, nil })
	if err != nil || cached || v.(int) != 41 {
		t.Fatalf("cold = (%v, %v, %v)", v, cached, err)
	}
	if disk.Len() != 1 {
		t.Fatal("computed value must write through to the blob tier")
	}

	// Same store, fresh memory tier and cache: a new process. The value
	// must come from the blob tier without running fn.
	cacheB := NewCacheStore(NewTiered(NewMemory(0), disk))
	v, cached, err = cacheB.DoCodecCtx(t.Context(), "k", codec, func() (any, error) { calls++; return -1, nil })
	if err != nil || !cached || v.(int) != 41 {
		t.Fatalf("warm start = (%v, %v, %v), want cached 41", v, cached, err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	// The disk hit was promoted into B's memory tier.
	if cacheB.Len() != 1 {
		t.Fatalf("promotion left %d memory entries, want 1", cacheB.Len())
	}
	st := cacheB.Stats()
	if st.Disk == nil || st.Disk.Hits != 1 {
		t.Fatalf("stats = %+v, want one disk hit", st)
	}
}

func TestTieredCodecMismatchRecomputes(t *testing.T) {
	disk := newMemBlob()
	disk.Put("k", "other/format@v9", []byte(`"whatever"`))
	cache := NewCacheStore(NewTiered(NewMemory(0), disk))
	codec := JSONCodec[int]("test/int-mismatch@v1")
	v, cached, err := cache.DoCodecCtx(t.Context(), "k", codec, func() (any, error) { return 7, nil })
	if err != nil || cached || v.(int) != 7 {
		t.Fatalf("mismatched entry must recompute: (%v, %v, %v)", v, cached, err)
	}
	if st := cache.Stats(); st.Disk == nil || st.Disk.Errors != 1 {
		t.Fatalf("codec mismatch must count an error: %+v", st.Disk)
	}
	// The recompute overwrote the foreign entry with this codec's bytes.
	if codecName, _, ok := disk.Get("k"); !ok || codecName != codec.Name() {
		t.Fatalf("entry after recompute = (%q, %v)", codecName, ok)
	}
}

func TestTieredUndecodableEntryRecomputes(t *testing.T) {
	disk := newMemBlob()
	codec := JSONCodec[int]("test/int-undecodable@v1")
	disk.Put("k", codec.Name(), []byte(`not json`))
	cache := NewCacheStore(NewTiered(NewMemory(0), disk))
	v, cached, err := cache.DoCodecCtx(t.Context(), "k", codec, func() (any, error) { return 9, nil })
	if err != nil || cached || v.(int) != 9 {
		t.Fatalf("undecodable entry must recompute: (%v, %v, %v)", v, cached, err)
	}
}

func TestTieredNilCodecStaysMemoryOnly(t *testing.T) {
	disk := newMemBlob()
	cache := NewCacheStore(NewTiered(NewMemory(0), disk))
	if _, _, err := cache.DoCodecCtx(context.Background(), "k", nil, func() (any, error) { return struct{ X chan int }{}, nil }); err != nil {
		t.Fatal(err)
	}
	if disk.Len() != 0 {
		t.Fatal("codec-less results must not reach the blob tier")
	}
	if _, cached, _ := cache.DoCodecCtx(context.Background(), "k", nil, func() (any, error) { return nil, errors.New("must not run") }); !cached {
		t.Fatal("codec-less result must still memoize in memory")
	}
}

// TestTieredSingleflightOverDisk: concurrent misses of one key cost one
// blob-tier read and zero recomputations.
func TestTieredSingleflightOverDisk(t *testing.T) {
	disk := newMemBlob()
	codec := JSONCodec[int]("test/int-singleflight@v1")
	blob, _ := codec.Encode(123)
	disk.Put("k", codec.Name(), blob)
	cache := NewCacheStore(NewTiered(NewMemory(0), disk))

	var wg sync.WaitGroup
	var calls atomic.Int64
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, cached, err := cache.DoCodecCtx(t.Context(), "k", codec, func() (any, error) {
				calls.Add(1)
				return -1, nil
			})
			if err != nil || !cached || v.(int) != 123 {
				t.Errorf("warm read = (%v, %v, %v)", v, cached, err)
			}
		}()
	}
	wg.Wait()
	if calls.Load() != 0 {
		t.Fatalf("fn ran %d times against a warm disk entry", calls.Load())
	}
	if disk.hits.Load() != 1 {
		t.Fatalf("disk served %d reads, want 1 (singleflight)", disk.hits.Load())
	}
}

func TestCachePurgeDropsAllTiers(t *testing.T) {
	disk := newMemBlob()
	codec := JSONCodec[int]("test/int-purge@v1")
	cache := NewCacheStore(NewTiered(NewMemory(0), disk))
	if _, _, err := cache.DoCodecCtx(t.Context(), "k", codec, func() (any, error) { return 5, nil }); err != nil {
		t.Fatal(err)
	}
	if err := cache.Purge(); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 0 || disk.Len() != 0 {
		t.Fatalf("purge left %d mem / %d disk entries", cache.Len(), disk.Len())
	}
	calls := 0
	if _, cached, _ := cache.DoCodecCtx(t.Context(), "k", codec, func() (any, error) { calls++; return 5, nil }); cached || calls != 1 {
		t.Fatal("purged key must recompute")
	}
}

// TestGraphStageCodecPersists: a graph whose stages declare codecs
// round-trips through the blob tier across cache instances, marking the
// warm run's stages cached.
func TestGraphStageCodecPersists(t *testing.T) {
	disk := newMemBlob()
	codec := JSONCodec[int]("test/int-graph@v1")
	runs := 0
	build := func(cache *Cache) *Graph {
		g := NewGraph(cache, 2)
		g.Add(Stage{Name: "a", Key: Key("graph-codec", "a"), Codec: codec, Run: func(map[string]any) (any, error) {
			runs++
			return 10, nil
		}})
		g.Add(Stage{Name: "b", Key: Key("graph-codec", "b"), Codec: codec, Deps: []string{"a"}, Run: func(d map[string]any) (any, error) {
			runs++
			return d["a"].(int) * 3, nil
		}})
		return g
	}
	cold, err := build(NewCacheStore(NewTiered(NewMemory(0), disk))).RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cold["b"].Value.(int) != 30 || runs != 2 {
		t.Fatalf("cold run: value %v, %d runs", cold["b"].Value, runs)
	}
	warm, err := build(NewCacheStore(NewTiered(NewMemory(0), disk))).RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if warm["b"].Value.(int) != 30 || runs != 2 {
		t.Fatalf("warm run recomputed: value %v, %d runs", warm["b"].Value, runs)
	}
	for _, name := range []string{"a", "b"} {
		if !warm[name].Cached {
			t.Fatalf("warm stage %s not marked cached", name)
		}
	}
}

func TestCacheLenCountsInFlight(t *testing.T) {
	cache := NewCacheStore(NewMemory(0))
	release := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		cache.DoCodecCtx(context.Background(), "k", nil, func() (any, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	if cache.Len() != 1 {
		t.Fatalf("in-flight Len = %d, want 1", cache.Len())
	}
	close(release)
	<-done
	if cache.Len() != 1 {
		t.Fatalf("settled Len = %d, want 1", cache.Len())
	}
}

func TestKeyFansOutDeterministically(t *testing.T) {
	// Guard the disk layout assumption: keys are hex and stable.
	k := Key("part", 1, 2.5)
	if k != Key("part", 1, 2.5) || len(k) != 24 {
		t.Fatalf("Key shape changed: %q", k)
	}
	if fmt.Sprintf("%x", k) == "" {
		t.Fatal("unreachable")
	}
}
