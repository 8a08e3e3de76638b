// Package store is the disk tier of the pipeline's stage cache: a
// content-addressed, disk-backed blob store for encoded stage results.
// Entries are sha256-addressed files written atomically (tempfile +
// rename), self-describing (magic, format version, codec name, full
// content key, payload checksum), and loaded defensively — any mismatch
// makes the entry a miss that the pipeline recomputes and overwrites, so
// a truncated write, a bit flip or a format change can never corrupt a
// result, only cost a recompute.
//
// One store directory may be shared by concurrent processes: writes are
// atomic renames, readers tolerate entries vanishing mid-scan, and the
// size-budget eviction scan is serialized across processes with an
// advisory file lock (flock). The on-disk layout is namespaced by format
// version (store.Namespace), so a process running an older or newer
// format sees an independent keyspace instead of undecodable entries.
//
// See DESIGN.md ("Artifact store") for how pipeline.Cache composes this
// tier (a pipeline.BlobStore) with its in-memory LRU.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cnfetdk/internal/fault"
	"cnfetdk/internal/pipeline"
)

// Namespace is the on-disk format version: entries live under
// <root>/<Namespace>/, so bumping it (with entryVersion) retires every
// old entry without ever parsing one with the wrong reader.
const Namespace = "v1"

// entryMagic and entryVersion head every entry file.
var entryMagic = [4]byte{'C', 'N', 'F', 'S'}

const entryVersion = 1

// entrySuffix names completed entries; temporaries use tmpPattern and are
// ignored by scans.
const (
	entrySuffix = ".art"
	tmpPattern  = ".tmp-*"
	tmpPrefix   = ".tmp-"
	lockName    = ".lock"
)

// tmpMaxAge is how old a temporary must be before Open/evict treat it as
// abandoned by a crashed writer and delete it. A live Put holds its
// temporary for milliseconds, so an hour leaves enormous margin against
// clipping another process's in-flight write.
const tmpMaxAge = time.Hour

// Disk is the persistent blob tier. All operations are best-effort by
// design: Put failures and corrupt entries increment the Errors counter
// and otherwise surface as misses, because losing a cache write must
// never fail the computation that produced it. Safe for concurrent use
// within a process and, via atomic renames + flock-serialized eviction,
// across processes sharing one directory.
type Disk struct {
	dir    string // <root>/<Namespace>
	budget int64  // entry-file byte budget (0 = unbounded)
	inj    *fault.Injector

	// Degradation breaker: degradeThreshold consecutive I/O errors put
	// the store in compute-through mode (every Get a miss, every Put a
	// no-op) for degradeCooldown, so a dead disk costs one cheap check
	// per operation instead of a syscall storm. 0 threshold disables.
	degradeThreshold int64
	degradeCooldown  time.Duration
	consecErrs       atomic.Int64
	degradedUntil    atomic.Int64 // UnixNano; 0 = healthy
	degradations     atomic.Int64

	// entries/bytes track this process's view of the resident set; they
	// are re-synced from a directory walk whenever eviction runs.
	entries atomic.Int64
	bytes   atomic.Int64

	hits, misses, puts, evictions, errors atomic.Int64

	evictMu sync.Mutex // one eviction scan at a time within the process
}

// Option tunes Open.
type Option func(*Disk)

// WithBudget bounds the store's total on-disk bytes, measured over whole
// entry files (header, codec name, key and checksum included, not just
// payloads): a Put that pushes the resident size beyond the budget
// triggers an oldest-first eviction scan back under it (0 = unbounded).
func WithBudget(maxBytes int64) Option {
	return func(d *Disk) { d.budget = maxBytes }
}

// WithInjector arms the store's fault-injection points (see package
// fault). A nil injector — the default — is free.
func WithInjector(inj *fault.Injector) Option {
	return func(d *Disk) { d.inj = inj }
}

// Default degradation-breaker tuning: how many consecutive I/O errors
// trip compute-through mode, and for how long.
const (
	DefaultDegradeThreshold = 16
	DefaultDegradeCooldown  = 2 * time.Second
)

// WithDegrade tunes the compute-through breaker: threshold consecutive
// I/O errors disable the disk tier for cooldown. threshold 0 disables
// the breaker (every operation keeps hitting the disk).
func WithDegrade(threshold int, cooldown time.Duration) Option {
	return func(d *Disk) {
		d.degradeThreshold = int64(threshold)
		d.degradeCooldown = cooldown
	}
}

// Open creates (or reopens) the store rooted at dir, placing entries in
// the current format namespace underneath it. The directory is created
// if missing; an unusable path (an existing regular file, an unwritable
// parent) is an error — after a successful Open, a directory that later
// turns read-only degrades to a read-only cache instead of failing jobs.
func Open(dir string, opts ...Option) (*Disk, error) {
	d := &Disk{
		dir:              filepath.Join(dir, Namespace),
		degradeThreshold: DefaultDegradeThreshold,
		degradeCooldown:  DefaultDegradeCooldown,
	}
	for _, opt := range opts {
		opt(d)
	}
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	d.removeStaleTemps()
	entries, bytes := d.scanResident()
	d.entries.Store(entries)
	d.bytes.Store(bytes)
	return d, nil
}

// Dir returns the namespaced directory entries live in.
func (d *Disk) Dir() string { return d.dir }

// entryPath maps a content key to its file: two-level fan-out on the
// sha256 of the key so one directory never accumulates every entry.
func (d *Disk) entryPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(d.dir, name[:2], name[2:]+entrySuffix)
}

// encodeEntry renders the self-describing entry file:
//
//	magic[4] version[1] codecLen[u16] keyLen[u32] payloadLen[u64]
//	codec... key... payloadSHA256[32] payload...
func encodeEntry(key, codec string, payload []byte) []byte {
	var buf bytes.Buffer
	buf.Write(entryMagic[:])
	buf.WriteByte(entryVersion)
	var hdr [14]byte
	binary.LittleEndian.PutUint16(hdr[0:2], uint16(len(codec)))
	binary.LittleEndian.PutUint32(hdr[2:6], uint32(len(key)))
	binary.LittleEndian.PutUint64(hdr[6:14], uint64(len(payload)))
	buf.Write(hdr[:])
	buf.WriteString(codec)
	buf.WriteString(key)
	sum := sha256.Sum256(payload)
	buf.Write(sum[:])
	buf.Write(payload)
	return buf.Bytes()
}

// errCorruptEntry is the one error the entry decoders return: every
// structural, version, checksum or key mismatch wraps it.
var errCorruptEntry = errors.New("store: corrupt entry")

// decodeEntry parses and verifies an entry file against the key it was
// looked up under; any structural or checksum mismatch returns an
// error wrapping errCorruptEntry (the caller treats it as corrupt).
func decodeEntry(blob []byte, wantKey string) (codec string, payload []byte, err error) {
	codec, key, payload, err := decodeEntryAny(blob)
	if err != nil {
		return "", nil, err
	}
	if key != wantKey {
		return "", nil, fmt.Errorf("%w: key mismatch (hash collision or misfiled entry)", errCorruptEntry)
	}
	return codec, payload, nil
}

// decodeEntryAny parses and checksums an entry file without knowing the
// key in advance, returning the key it declares — the integrity scan's
// entry point. Its errors wrap errCorruptEntry.
func decodeEntryAny(blob []byte) (codec, key string, payload []byte, err error) {
	if len(blob) < 4+1+14 || !bytes.Equal(blob[:4], entryMagic[:]) {
		return "", "", nil, fmt.Errorf("%w: bad header", errCorruptEntry)
	}
	if blob[4] != entryVersion {
		return "", "", nil, fmt.Errorf("%w: version %d, want %d", errCorruptEntry, blob[4], entryVersion)
	}
	codecLen := int(binary.LittleEndian.Uint16(blob[5:7]))
	keyLen := binary.LittleEndian.Uint32(blob[7:11])
	payloadLen := binary.LittleEndian.Uint64(blob[11:19])
	rest := blob[19:]
	// Bound the variable-length fields against the blob before any
	// slicing or int conversion: summing all three declared lengths and
	// comparing the total to len(rest) would let a crafted header wrap
	// the uint64 sum back into range and pass with out-of-bounds parts.
	// codecLen+keyLen+32 cannot wrap (< 2^33), and once it fits in
	// len(rest) every field converts to int safely on 32-bit too.
	if uint64(codecLen)+uint64(keyLen)+32 > uint64(len(rest)) {
		return "", "", nil, fmt.Errorf("%w: truncated", errCorruptEntry)
	}
	metaLen := codecLen + int(keyLen) + 32
	if uint64(len(rest)-metaLen) != payloadLen {
		return "", "", nil, fmt.Errorf("%w: truncated", errCorruptEntry)
	}
	codec = string(rest[:codecLen])
	key = string(rest[codecLen : codecLen+int(keyLen)])
	var sum [32]byte
	copy(sum[:], rest[metaLen-32:metaLen])
	payload = rest[metaLen:]
	if sha256.Sum256(payload) != sum {
		return "", "", nil, fmt.Errorf("%w: payload checksum mismatch", errCorruptEntry)
	}
	return codec, key, payload, nil
}

// ioError records one I/O failure and advances the degradation
// breaker.
func (d *Disk) ioError() {
	d.errors.Add(1)
	if d.degradeThreshold <= 0 {
		return
	}
	if d.consecErrs.Add(1) >= d.degradeThreshold {
		d.consecErrs.Store(0)
		d.degradedUntil.Store(time.Now().Add(d.degradeCooldown).UnixNano())
		d.degradations.Add(1)
	}
}

// ioOK resets the breaker after any successful disk operation.
func (d *Disk) ioOK() { d.consecErrs.Store(0) }

// Degraded reports whether the breaker currently bypasses the disk.
func (d *Disk) Degraded() bool {
	until := d.degradedUntil.Load()
	return until != 0 && time.Now().UnixNano() < until
}

// Degradations counts how many times the breaker has tripped.
func (d *Disk) Degradations() int64 { return d.degradations.Load() }

// Get implements pipeline.BlobStore: it loads, verifies and returns the
// entry for key. A missing file is a plain miss; an unreadable or corrupt
// one counts an error, is deleted best-effort, and reads as a miss so the
// pipeline recomputes it.
func (d *Disk) Get(key string) (string, []byte, bool) {
	if d.Degraded() {
		d.misses.Add(1)
		return "", nil, false
	}
	if d.inj.Decide("store.get.read").Fired() {
		d.ioError()
		d.misses.Add(1)
		return "", nil, false
	}
	path := d.entryPath(key)
	blob, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			d.ioError()
		} else {
			d.ioOK()
		}
		d.misses.Add(1)
		return "", nil, false
	}
	codec, payload, err := decodeEntry(blob, key)
	if err != nil {
		// Corrupt: drop the entry so the recompute's Put replaces it
		// cleanly, and fall back to a miss. Corruption is a data
		// problem, not a disk-health signal, so it counts an error
		// without advancing the degradation breaker.
		d.errors.Add(1)
		d.misses.Add(1)
		if os.Remove(path) == nil {
			d.entries.Add(-1)
			d.bytes.Add(-int64(len(blob)))
		}
		return "", nil, false
	}
	d.ioOK()
	d.hits.Add(1)
	return codec, payload, true
}

// Put implements pipeline.BlobStore: an atomic tempfile+fsync+rename
// write of the entry, followed by budget eviction if the store grew
// past it. The fsync orders the payload ahead of the rename, so after
// a crash either the complete entry is visible or only a temporary is
// — never a renamed-but-unwritten file (and the checksum catches any
// torn write the filesystem lets through anyway). Failures (read-only
// directory, full disk) count as errors and are otherwise swallowed —
// the value stays served from memory.
func (d *Disk) Put(key, codec string, payload []byte) {
	if d.Degraded() {
		return
	}
	path := d.entryPath(key)
	blob := encodeEntry(key, codec, payload)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		d.ioError()
		return
	}
	if d.inj.Decide("store.put.tempfile").Fired() {
		d.ioError()
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), tmpPattern)
	if err != nil {
		d.ioError()
		return
	}
	wblob := blob
	if fd := d.inj.Decide("store.put.write"); fd.Fired() && fd.Action == fault.ActionTorn {
		// Torn write: only a prefix of the entry reaches the disk. The
		// write path proceeds — publishing the truncated entry is the
		// point, so tests can prove decode rejects it.
		if fd.After < int64(len(wblob)) {
			wblob = wblob[:fd.After]
		}
	} else if fd.Fired() {
		tmp.Close()
		os.Remove(tmp.Name())
		d.ioError()
		return
	}
	_, werr := tmp.Write(wblob)
	serr := tmp.Sync()
	if d.inj.Decide("store.put.sync").Fired() && serr == nil {
		serr = fmt.Errorf("store: injected sync failure")
	}
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		d.ioError()
		return
	}
	if rd := d.inj.Decide("store.put.rename"); rd.Fired() {
		if rd.Action == fault.ActionCrash {
			// Crash-before-rename: the writer "dies" here, leaving the
			// temporary behind for removeStaleTemps to reap. No error
			// counted — a dead process can't count anything.
			return
		}
		os.Remove(tmp.Name())
		d.ioError()
		return
	}
	// Renaming over an existing entry (same key, concurrent writer) is
	// fine: content-addressed keys make both bytes equivalent.
	prev, _ := os.Stat(path)
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		d.ioError()
		return
	}
	d.ioOK()
	d.puts.Add(1)
	if prev == nil {
		d.entries.Add(1)
		d.bytes.Add(int64(len(blob)))
	} else {
		d.bytes.Add(int64(len(blob)) - prev.Size())
	}
	if d.budget > 0 && d.bytes.Load() > d.budget {
		d.evict()
	}
}

// residentEntry is one completed entry seen by a directory scan.
type residentEntry struct {
	path  string
	size  int64
	mtime int64
}

// walkEntries lists completed entries (ignoring temporaries and the lock
// file), tolerating files vanishing mid-scan.
func (d *Disk) walkEntries() []residentEntry {
	var out []residentEntry
	filepath.WalkDir(d.dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() || filepath.Ext(path) != entrySuffix {
			return nil
		}
		info, err := de.Info()
		if err != nil {
			return nil // vanished under us (concurrent eviction)
		}
		out = append(out, residentEntry{path: path, size: info.Size(), mtime: info.ModTime().UnixNano()})
		return nil
	})
	return out
}

// removeStaleTemps deletes temporaries abandoned by writers that died
// between CreateTemp and Rename — otherwise they escape both resident
// accounting and budget eviction (neither looks past entrySuffix) and
// accumulate forever. Only clearly stale files (older than tmpMaxAge)
// go, so a concurrent process's in-flight Put is never clipped.
func (d *Disk) removeStaleTemps() {
	cutoff := time.Now().Add(-tmpMaxAge)
	filepath.WalkDir(d.dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() || !strings.HasPrefix(de.Name(), tmpPrefix) {
			return nil
		}
		if info, ierr := de.Info(); ierr == nil && info.ModTime().Before(cutoff) {
			os.Remove(path)
		}
		return nil
	})
}

// scanResident totals the current entry population.
func (d *Disk) scanResident() (entries, bytes int64) {
	for _, e := range d.walkEntries() {
		entries++
		bytes += e.size
	}
	return entries, bytes
}

// evict walks the store and removes oldest-first (by mtime) until the
// resident bytes fit the budget again. The scan re-measures the
// directory rather than trusting in-process counters, so concurrent
// processes sharing the store converge instead of double-counting; the
// advisory flock keeps two processes from evicting the same tail at
// once (a second process skips its scan — the first one's suffices).
func (d *Disk) evict() {
	d.evictMu.Lock()
	defer d.evictMu.Unlock()
	unlock, ok := func() (func(), bool) {
		if d.inj.Decide("store.lock").Fired() {
			// Injected flock contention: behave exactly as if another
			// process held the eviction lock.
			return nil, false
		}
		return lockDir(filepath.Join(d.dir, lockName))
	}()
	if !ok {
		// Another process is already evicting; its scan suffices. Still
		// resync our counters from a (read-only, lock-free) walk so d.bytes
		// reflects that eviction's progress — otherwise a stale over-budget
		// figure would re-trigger this scan on every subsequent Put.
		entries, bytes := d.scanResident()
		d.entries.Store(entries)
		d.bytes.Store(bytes)
		return
	}
	defer unlock()

	d.removeStaleTemps()
	entries := d.walkEntries()
	var total int64
	for _, e := range entries {
		total += e.size
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime < entries[j].mtime })
	n := int64(len(entries))
	for _, e := range entries {
		if total <= d.budget {
			break
		}
		if os.Remove(e.path) == nil {
			total -= e.size
			n--
			d.evictions.Add(1)
		}
	}
	d.entries.Store(n)
	d.bytes.Store(total)
}

// Len implements pipeline.BlobStore. See Stats for the accuracy caveat
// on shared directories.
func (d *Disk) Len() int { return int(d.entries.Load()) }

// Stats implements pipeline.BlobStore. Hits, Misses, Puts, Evictions and
// Errors are exact per-process operation counts. Entries and Bytes are
// this process's view of the shared resident set: when several processes
// write one directory, concurrent renames in the stat-then-rename window
// can skew them, and they resync only when an eviction scan runs (never,
// on an unbounded store) — treat them as approximate there.
func (d *Disk) Stats() pipeline.TierStats {
	return pipeline.TierStats{
		Entries:   d.entries.Load(),
		Bytes:     d.bytes.Load(),
		Hits:      d.hits.Load(),
		Misses:    d.misses.Load(),
		Puts:      d.puts.Load(),
		Evictions: d.evictions.Load(),
		Errors:    d.errors.Load(),
	}
}

// VerifyResult is the outcome of an integrity scan.
type VerifyResult struct {
	// Entries counts completed entry files scanned.
	Entries int `json:"entries"`
	// Corrupt counts entries decode rejects (truncated, bad checksum)
	// — these read as misses and cost only a recompute, so their
	// presence after a fault schedule is expected, not dangerous.
	Corrupt int `json:"corrupt"`
	// Misfiled counts entries that decode cleanly but live at a path
	// that doesn't match their declared key — the only way a scan can
	// observe a *readable* wrong answer, and therefore the number that
	// must always be zero.
	Misfiled int `json:"misfiled"`
	// Temps counts leftover temporaries (crashed writers).
	Temps int `json:"temps"`
}

// Verify walks every entry in the store and checks it decodes to the
// key it is filed under. It never modifies the store.
func (d *Disk) Verify() VerifyResult {
	var res VerifyResult
	filepath.WalkDir(d.dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return nil
		}
		if strings.HasPrefix(de.Name(), tmpPrefix) {
			res.Temps++
			return nil
		}
		if filepath.Ext(path) != entrySuffix {
			return nil
		}
		res.Entries++
		blob, rerr := os.ReadFile(path)
		if rerr != nil {
			return nil // vanished mid-scan
		}
		_, key, _, derr := decodeEntryAny(blob)
		if derr != nil {
			res.Corrupt++
			return nil
		}
		if d.entryPath(key) != path {
			res.Misfiled++
		}
		return nil
	})
	return res
}

// Purge removes every entry (and stale temporaries) in the namespace,
// keeping the directory itself usable.
func (d *Disk) Purge() error {
	var firstErr error
	filepath.WalkDir(d.dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() || filepath.Base(path) == lockName {
			return nil
		}
		if rerr := os.Remove(path); rerr != nil && !os.IsNotExist(rerr) && firstErr == nil {
			firstErr = rerr
		}
		return nil
	})
	if firstErr == nil {
		d.entries.Store(0)
		d.bytes.Store(0)
	}
	return firstErr
}
