package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// findEntry returns the single entry file for key, failing if absent.
func findEntry(t *testing.T, d *Disk, key string) string {
	t.Helper()
	path := d.entryPath(key)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("entry for %q: %v", key, err)
	}
	return path
}

func TestPutGetRoundTrip(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"delay": 1.25e-12}`)
	d.Put("stage/delay", "flow/scalar@v1", payload)
	codec, got, ok := d.Get("stage/delay")
	if !ok || codec != "flow/scalar@v1" || string(got) != string(payload) {
		t.Fatalf("Get = (%q, %q, %v), want the stored entry", codec, got, ok)
	}
	if st := d.Stats(); st.Hits != 1 || st.Puts != 1 || st.Entries != 1 || st.Errors != 0 {
		t.Fatalf("stats after round trip: %+v", st)
	}
}

func TestGetMissAndReopenWarm(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := d.Get("absent"); ok {
		t.Fatal("empty store must miss")
	}
	d.Put("k", "c@v1", []byte("payload"))

	// A second handle on the same directory — a fresh process — sees the
	// entry and the resident totals.
	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := d2.Get("k"); !ok {
		t.Fatal("reopened store must serve the persisted entry")
	}
	if d2.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1", d2.Len())
	}
}

// TestCorruptEntriesFallBackToMiss covers the corruption-tolerance
// contract: truncated files, flipped payload bytes, wrong magic and
// wrong-format-version entries all read as misses (plus an error count
// and best-effort removal), never as wrong data.
func TestCorruptEntriesFallBackToMiss(t *testing.T) {
	corruptions := []struct {
		name string
		mod  func(blob []byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"wrapped-lengths", func(b []byte) []byte {
			// keyLen = 0xFFFFFFFF with a payloadLen chosen so the uint64
			// sum of all declared lengths wraps back to exactly len(rest).
			// A validation that only compares that sum would pass and then
			// panic slicing 4 GiB out of a 100-byte blob; decodeEntry must
			// bound each length individually and reject this.
			rest := uint64(len(b) - 19)
			codecLen := uint64(binary.LittleEndian.Uint16(b[5:7]))
			binary.LittleEndian.PutUint32(b[7:11], 0xFFFFFFFF)
			binary.LittleEndian.PutUint64(b[11:19], rest-codecLen-0xFFFFFFFF-32)
			return b
		}},
		{"payload-flip", func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b }},
		{"bad-magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"future-version", func(b []byte) []byte { b[4] = entryVersion + 1; return b }},
		{"empty", func([]byte) []byte { return nil }},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			d, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			d.Put("k", "c@v1", []byte("genuine payload bytes"))
			path := findEntry(t, d, "k")
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, c.mod(blob), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := d.Get("k"); ok {
				t.Fatal("corrupt entry must read as a miss")
			}
			if st := d.Stats(); st.Errors == 0 {
				t.Fatal("corrupt load must count an error")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry should be removed, stat err = %v", err)
			}
			// The slot is clean again: a recompute's Put round-trips.
			d.Put("k", "c@v1", []byte("recomputed"))
			if _, got, ok := d.Get("k"); !ok || string(got) != "recomputed" {
				t.Fatalf("post-corruption Put/Get = (%q, %v)", got, ok)
			}
		})
	}
}

// FuzzDecodeEntry holds the entry decoders to their contract on
// arbitrary bytes: they never panic, and they return either an error
// wrapping errCorruptEntry or fields that encodeEntry turns back into
// the input bytes. decodeEntry agrees with decodeEntryAny under the
// declared key and refuses any other key. The seed corpus
// (testdata/fuzz/FuzzDecodeEntry) holds a real stage entry, a real
// per-cell certificate entry, a truncated entry and the wrapped-lengths
// header of TestCorruptEntriesFallBackToMiss.
func FuzzDecodeEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		codec, key, payload, err := decodeEntryAny(blob)
		if err != nil {
			if !errors.Is(err, errCorruptEntry) {
				t.Fatalf("decodeEntryAny error %v does not wrap errCorruptEntry", err)
			}
			if _, _, err := decodeEntry(blob, key); !errors.Is(err, errCorruptEntry) {
				t.Fatalf("decodeEntry accepted what decodeEntryAny refused (err %v)", err)
			}
			return
		}
		if again := encodeEntry(key, codec, payload); !bytes.Equal(again, blob) {
			t.Fatalf("decoded (%q, %q, %d payload bytes) re-encodes to different bytes", codec, key, len(payload))
		}
		c, p, err := decodeEntry(blob, key)
		if err != nil || c != codec || !bytes.Equal(p, payload) {
			t.Fatalf("decodeEntry under the declared key = (%q, %d bytes, %v), want (%q, %d bytes, nil)",
				c, len(p), err, codec, len(payload))
		}
		if _, _, err := decodeEntry(blob, key+"/other"); !errors.Is(err, errCorruptEntry) {
			t.Fatalf("decodeEntry under another key: err = %v, want errCorruptEntry", err)
		}
	})
}

// TestKeyMismatchEntryRejected: an entry misfiled under another key's
// path (or a sha256 collision, theatrically) must not decode.
func TestKeyMismatchEntryRejected(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d.Put("key-a", "c@v1", []byte("a's payload"))
	src := findEntry(t, d, "key-a")
	dst := d.entryPath("key-b")
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := d.Get("key-b"); ok {
		t.Fatal("entry recorded for key-a must not serve key-b")
	}
}

func TestOpenOnRegularFileFails(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "occupied")
	if err := os.WriteFile(path, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("Open over a regular file must fail")
	}
}

// TestUnwritableStoreServesReads: a store directory that turns read-only
// after Open degrades to a read-only cache — Puts are swallowed (counted
// as errors), Gets keep hitting.
func TestUnwritableStoreServesReads(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("file permissions do not bind root")
	}
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d.Put("warm", "c@v1", []byte("persisted before lockdown"))
	if err := filepath.WalkDir(d.Dir(), func(path string, de os.DirEntry, err error) error {
		if err == nil && de.IsDir() {
			return os.Chmod(path, 0o555)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		filepath.WalkDir(d.Dir(), func(path string, de os.DirEntry, err error) error {
			if err == nil && de.IsDir() {
				os.Chmod(path, 0o755)
			}
			return nil
		})
	})

	d.Put("cold", "c@v1", []byte("must not land"))
	if st := d.Stats(); st.Errors == 0 {
		t.Fatal("Put into a read-only store must count an error")
	}
	if _, _, ok := d.Get("cold"); ok {
		t.Fatal("failed Put must not be readable")
	}
	if _, got, ok := d.Get("warm"); !ok || string(got) != "persisted before lockdown" {
		t.Fatalf("read-only store must keep serving: (%q, %v)", got, ok)
	}
}

func TestBudgetEvictsOldestFirst(t *testing.T) {
	dir := t.TempDir()
	payload := make([]byte, 1024)
	// Entry overhead is small; a 4KiB budget holds ~3 entries.
	d, err := Open(dir, WithBudget(4096))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("k%d", i)
		d.Put(key, "c@v1", payload)
		bumpMtimes(t, d) // age existing entries so mtime order is strict
	}
	st := d.Stats()
	if st.Evictions == 0 {
		t.Fatalf("budgeted store never evicted: %+v", st)
	}
	if st.Bytes > 4096 {
		t.Fatalf("resident %d bytes exceeds the 4096 budget", st.Bytes)
	}
	if _, _, ok := d.Get("k0"); ok {
		t.Fatal("oldest entry must be evicted first")
	}
	if _, _, ok := d.Get("k7"); !ok {
		t.Fatal("newest entry must survive eviction")
	}
}

// bumpMtimes rewinds every resident entry's mtime by one second so
// subsequently written entries sort strictly newer even on filesystems
// with coarse timestamps.
func bumpMtimes(t *testing.T, d *Disk) {
	t.Helper()
	for _, e := range d.walkEntries() {
		info, err := os.Stat(e.path)
		if err != nil {
			continue
		}
		mt := info.ModTime().Add(-1e9)
		if err := os.Chtimes(e.path, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenRemovesStaleTemps: temporaries left by a writer that died
// mid-Put are swept on Open once clearly abandoned, while a fresh
// temporary (another process's in-flight write) is left alone.
func TestOpenRemovesStaleTemps(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fan := filepath.Join(d.Dir(), "ab")
	if err := os.MkdirAll(fan, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(fan, ".tmp-dead-writer")
	fresh := filepath.Join(fan, ".tmp-in-flight")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial entry bytes"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * tmpMaxAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temporary survived Open, stat err = %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temporary must survive Open: %v", err)
	}
}

func TestPurge(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		d.Put(fmt.Sprintf("k%d", i), "c@v1", []byte("x"))
	}
	if err := d.Purge(); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Fatalf("purged store holds %d entries", d.Len())
	}
	if _, _, ok := d.Get("k0"); ok {
		t.Fatal("purged entry still readable")
	}
	// The store stays usable after a purge.
	d.Put("k0", "c@v1", []byte("fresh"))
	if _, _, ok := d.Get("k0"); !ok {
		t.Fatal("post-purge Put/Get failed")
	}
}

// TestConcurrentHandlesSharedDir hammers one directory through two Disk
// handles (two processes, morally) from many goroutines, with a budget
// so eviction scans interleave with reads and writes. Run under -race;
// correctness bar: no panic, and every successful Get returns exactly
// the payload its key was written with.
func TestConcurrentHandlesSharedDir(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, WithBudget(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, WithBudget(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	payloadFor := func(key string) []byte {
		return []byte(strings.Repeat(key+"|", 50))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := a
			if w%2 == 1 {
				h = b
			}
			for i := 0; i < 60; i++ {
				key := fmt.Sprintf("k%d", (w*13+i)%24)
				if i%3 == 0 {
					h.Put(key, "c@v1", payloadFor(key))
					continue
				}
				if _, got, ok := h.Get(key); ok && string(got) != string(payloadFor(key)) {
					t.Errorf("%s served foreign payload %q", key, got[:20])
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := a.Stats(); st.Errors != 0 {
		t.Fatalf("handle A counted %d errors under clean concurrency", st.Errors)
	}
	if st := b.Stats(); st.Errors != 0 {
		t.Fatalf("handle B counted %d errors under clean concurrency", st.Errors)
	}
}

// TestNamespaceIsolation: a root directory shared by two format
// namespaces keeps their keyspaces disjoint (the upgrade story: a new
// format never reads old bytes).
func TestNamespaceIsolation(t *testing.T) {
	root := t.TempDir()
	d, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	d.Put("k", "c@v1", []byte("current format"))
	foreign := filepath.Join(root, "v0", "aa")
	if err := os.MkdirAll(foreign, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(foreign, "junk"+entrySuffix), []byte("old format junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 1 {
		t.Fatalf("namespace scan counted %d entries, want 1 (foreign namespace ignored)", d2.Len())
	}
	if _, _, ok := d2.Get("k"); !ok {
		t.Fatal("current-namespace entry must survive alongside a foreign namespace")
	}
}

func TestFlockSerializesAcquisition(t *testing.T) {
	path := filepath.Join(t.TempDir(), ".lock")
	rel1, ok := lockDir(path)
	if !ok {
		t.Fatal("first lock must succeed")
	}
	if _, ok := lockDir(path); ok {
		t.Fatal("second lock must be refused while held")
	}
	rel1()
	rel2, ok := lockDir(path)
	if !ok {
		t.Fatal("lock must be reacquirable after release")
	}
	rel2()
}
