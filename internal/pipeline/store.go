package pipeline

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// TierStats is one tier's cache-effectiveness counters.
type TierStats struct {
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes,omitempty"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Puts      int64 `json:"puts,omitempty"`
	Evictions int64 `json:"evictions"`
	Errors    int64 `json:"errors,omitempty"`
}

// StoreStats snapshots a cache's tiers: always the memory tier, plus the
// disk tier when the cache is persistent (nil otherwise). This is the
// JSON shape the daemon serves on GET /v1/cache.
type StoreStats struct {
	Mem  TierStats  `json:"mem"`
	Disk *TierStats `json:"disk,omitempty"`
}

// Memory is the cache's in-memory tier: a true LRU over decoded values.
// Probe refreshes recency, so a long-running server under an entry bound
// keeps its hot stage results and evicts the least-recently-used ones (a
// FIFO bound could evict a hot library-build result merely because it
// was computed first). The zero value is not usable; construct with
// NewMemory.
type Memory struct {
	mu    sync.Mutex
	max   int        // max entries (0 = unbounded)
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses, evictions atomic.Int64
}

// memItem is one LRU entry.
type memItem struct {
	key   string
	value any
}

// NewMemory builds an LRU memory tier bounded to maxEntries completed
// values (maxEntries <= 0 is unbounded).
func NewMemory(maxEntries int) *Memory {
	return &Memory{max: maxEntries, ll: list.New(), items: map[string]*list.Element{}}
}

// Probe looks the key up and refreshes its recency.
func (m *Memory) Probe(key string) (any, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.items[key]; ok {
		m.ll.MoveToFront(el)
		m.hits.Add(1)
		return el.Value.(*memItem).value, true
	}
	m.misses.Add(1)
	return nil, false
}

// Save inserts (or refreshes) the value and enforces the entry bound.
func (m *Memory) Save(key string, v any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.items[key]; ok {
		el.Value.(*memItem).value = v
		m.ll.MoveToFront(el)
		return
	}
	m.items[key] = m.ll.PushFront(&memItem{key: key, value: v})
	for m.max > 0 && m.ll.Len() > m.max {
		oldest := m.ll.Back()
		m.ll.Remove(oldest)
		delete(m.items, oldest.Value.(*memItem).key)
		m.evictions.Add(1)
	}
}

// Len reports resident entries.
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.items)
}

// Stats snapshots the tier counters.
func (m *Memory) Stats() TierStats {
	return TierStats{
		Entries:   int64(m.Len()),
		Hits:      m.hits.Load(),
		Misses:    m.misses.Load(),
		Evictions: m.evictions.Load(),
	}
}

// Purge drops every entry (counters are preserved).
func (m *Memory) Purge() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ll.Init()
	m.items = map[string]*list.Element{}
}

// BlobStore is the byte-level persistence interface under the cache's
// disk tier (implemented by internal/store.Disk). It stores encoded
// payloads with the codec name that produced them; all methods are
// best-effort — a failed Put or a corrupt entry surfaces as a miss plus
// an error counter, never as a pipeline failure.
type BlobStore interface {
	// Get returns the entry's recorded codec name and payload.
	Get(key string) (codec string, data []byte, ok bool)
	// Put persists a payload under key, atomically.
	Put(key, codec string, data []byte)
	// Len reports resident entries.
	Len() int
	// Stats snapshots the tier counters.
	Stats() TierStats
	// Purge removes every entry.
	Purge() error
}
