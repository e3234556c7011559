// Package artifact is the repository's content-addressed artifact store:
// a two-tier cache keyed by the sha256 of an artifact's full provenance
// (scenario, extraction parameters, training configuration — whatever
// determines the bytes of the result). It generalises the capture
// memoization cache to every expensive, bit-reproducible product of the
// pipeline: raw captures, per-capture window/feature matrices, assembled
// datasets, and trained forests.
//
// Tier 1 is an in-process, bytes-bounded LRU. Entries are admitted with an
// approximate size from their codec and evicted least-recently-used once
// the byte budget is exceeded; a single population-scale capture runs to
// ~90 MB, so an entry-count bound would silently admit multi-GB residency.
// Within a process the store is singleflight: the first request for a key
// computes, concurrent requests for the same key wait for that one
// computation, and failures are never memoized.
//
// Tier 2 is an optional on-disk store (SetDir), shared between processes.
// Entries are snapshot containers — CRC-guarded, versioned, written via
// atomic temp+fsync+rename — so a concurrent reader can never observe a
// torn entry, and a corrupted, truncated, or version-skewed file is
// detected, deleted, and recomputed, never trusted. The disk tier is a
// cache, not a database: every read validates the full container CRC and
// the embedded (kind, version, key) identity before the payload decodes.
//
// Correctness contract: a codec must decode exactly what it encoded — the
// warm-path value must be byte-identical, when re-serialised, to the
// computed value. The experiment layer's warm-vs-cold differential tests
// pin this end to end.
package artifact

import (
	"container/list"
	"sync"
	"sync/atomic"

	"ltefp/internal/snapshot"
)

// Kind names an artifact family. Kinds partition the key space and the
// on-disk layout; each kind has exactly one codec wired at its call sites.
type Kind string

// The artifact kinds the pipeline caches today.
const (
	// KindCapture is a full simulated capture (internal/capture.Capture).
	KindCapture Kind = "capture"
	// KindFeatures is a per-capture window/feature matrix ([][]float64).
	KindFeatures Kind = "features"
	// KindDataset is an assembled per-app training corpus.
	KindDataset Kind = "dataset"
	// KindForest is a trained classifier (fingerprint persist encoding).
	KindForest Kind = "forest"
)

// Key is the 32-byte content address of an artifact: the sha256 of its
// full provenance, built via Hasher.
type Key [32]byte

// Codec serialises one artifact kind through the snapshot primitive layer.
// Implementations must be deterministic (equal values → equal bytes) and
// must reject, via the Decoder's error discipline, any payload they did
// not write.
type Codec interface {
	// Kind names the artifact family this codec handles.
	Kind() Kind
	// Version is the codec's payload layout version. A disk entry written
	// by any other version is discarded and recomputed.
	Version() uint32
	// Encode appends the artifact to the encoder.
	Encode(e *snapshot.Encoder, v any) error
	// Decode reconstructs the artifact; it must consume the payload
	// exactly (callers invoke Finish).
	Decode(d *snapshot.Decoder) (any, error)
	// Size approximates the artifact's in-memory footprint in bytes, for
	// the memory tier's byte accounting.
	Size(v any) int64
}

// DefaultMemoryBudget bounds the default store's in-memory tier. Large
// enough to hold a full quick-scale experiment's working set, small enough
// that a handful of population captures force eviction.
const DefaultMemoryBudget int64 = 512 << 20

// KindStats is a snapshot of one kind's cache-effectiveness counters.
type KindStats struct {
	// MemHits counts requests served by the in-memory tier (including
	// requests that waited on an in-flight computation of the same key).
	MemHits int64
	// DiskHits counts requests served by decoding a validated disk entry.
	DiskHits int64
	// Misses counts requests that ran the compute function.
	Misses int64
	// Bypasses counts requests that skipped the store entirely (store
	// disabled, or the caller's bypass rule — e.g. an unhashable request).
	Bypasses int64
	// Evictions counts memory-tier entries dropped by the byte budget.
	Evictions int64
	// DiskWrites counts entries persisted to the disk tier.
	DiskWrites int64
	// DiskDiscards counts disk entries rejected (corrupt, truncated,
	// version-skewed, or mis-keyed) and deleted.
	DiskDiscards int64
	// DiskErrors counts disk reads/writes that failed operationally
	// (permissions, disk full); these degrade to compute, never to error.
	DiskErrors int64
}

// Stats is a full-store snapshot.
type Stats struct {
	// PerKind holds each kind's counters.
	PerKind map[Kind]KindStats
	// BytesUsed is the memory tier's current accounted footprint.
	BytesUsed int64
	// Entries is the memory tier's current entry count.
	Entries int
}

// Total sums the per-kind counters.
func (s Stats) Total() KindStats {
	var t KindStats
	for _, ks := range s.PerKind {
		t.MemHits += ks.MemHits
		t.DiskHits += ks.DiskHits
		t.Misses += ks.Misses
		t.Bypasses += ks.Bypasses
		t.Evictions += ks.Evictions
		t.DiskWrites += ks.DiskWrites
		t.DiskDiscards += ks.DiskDiscards
		t.DiskErrors += ks.DiskErrors
	}
	return t
}

// kindCounters is the live (atomic) form of KindStats.
type kindCounters struct {
	memHits, diskHits, misses, bypasses       atomic.Int64
	evictions, diskWrites, discards, diskErrs atomic.Int64
}

func (k *kindCounters) snapshot() KindStats {
	return KindStats{
		MemHits:      k.memHits.Load(),
		DiskHits:     k.diskHits.Load(),
		Misses:       k.misses.Load(),
		Bypasses:     k.bypasses.Load(),
		Evictions:    k.evictions.Load(),
		DiskWrites:   k.diskWrites.Load(),
		DiskDiscards: k.discards.Load(),
		DiskErrors:   k.diskErrs.Load(),
	}
}

// entryKey addresses one artifact in the memory tier.
type entryKey struct {
	kind Kind
	key  Key
}

// entry is one memory-tier slot. done closes when val/err/size are final;
// waiters block on it (the singleflight discipline). In-flight entries are
// pinned: eviction skips them and their size is not yet accounted.
type entry struct {
	ek   entryKey
	elem *list.Element
	done chan struct{}
	val  any
	size int64
	err  error
}

// Store is a two-tier content-addressed artifact cache. The zero value is
// not usable; use NewStore.
type Store struct {
	mu      sync.Mutex
	budget  int64 // memory-tier byte bound; <= 0 disables the memory tier
	bytes   int64 // accounted footprint of completed entries
	dir     string
	entries map[entryKey]*entry
	order   *list.List // front = most recently used

	statsMu sync.Mutex
	stats   map[Kind]*kindCounters

	metrics atomic.Pointer[metricSet]
}

// NewStore returns a store with the given memory-tier byte budget and no
// disk tier. budget <= 0 disables the memory tier.
func NewStore(budget int64) *Store {
	return &Store{
		budget:  budget,
		entries: make(map[entryKey]*entry),
		order:   list.New(),
		stats:   make(map[Kind]*kindCounters),
	}
}

// Default is the process-wide artifact store used by the pipeline
// (capture.RunCached, fingerprint collection, experiment datasets).
var Default = NewStore(DefaultMemoryBudget)

// counters returns the live counter block of a kind.
func (s *Store) counters(k Kind) *kindCounters {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	c, ok := s.stats[k]
	if !ok {
		c = &kindCounters{}
		s.stats[k] = c
	}
	return c
}

// SetMemoryBudget re-bounds the memory tier to budget bytes and returns
// the previous budget. budget <= 0 disables the memory tier and drops its
// contents; the disk tier, if any, is unaffected.
func (s *Store) SetMemoryBudget(budget int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.budget
	s.budget = budget
	if budget <= 0 {
		s.dropMemoryLocked()
	} else {
		s.evictLocked()
	}
	return prev
}

// SetDir enables (non-empty) or disables (empty) the disk tier. The
// directory is created if missing. Concurrent processes may share a
// directory; the snapshot container discipline keeps them from ever
// observing each other's partial writes.
func (s *Store) SetDir(dir string) error {
	if dir != "" {
		if err := ensureDir(dir); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.dir = dir
	s.mu.Unlock()
	return nil
}

// Dir reports the disk-tier root, empty when disabled.
func (s *Store) Dir() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dir
}

// Reset drops every memory-tier entry and zeroes the statistics. Disk
// entries are kept: they are validated on every read, so staleness is not
// a correctness concern, only key design is.
func (s *Store) Reset() {
	s.mu.Lock()
	s.dropMemoryLocked()
	s.mu.Unlock()
	s.statsMu.Lock()
	s.stats = make(map[Kind]*kindCounters)
	s.statsMu.Unlock()
	s.gaugeBytes(0)
}

// dropMemoryLocked empties the memory tier. Callers hold mu.
func (s *Store) dropMemoryLocked() {
	s.entries = make(map[entryKey]*entry)
	s.order.Init()
	s.bytes = 0
	s.gaugeBytes(0)
}

// ReadStats snapshots the store's counters.
func (s *Store) ReadStats() Stats {
	s.mu.Lock()
	bytes, n := s.bytes, len(s.entries)
	s.mu.Unlock()
	out := Stats{PerKind: make(map[Kind]KindStats), BytesUsed: bytes, Entries: n}
	s.statsMu.Lock()
	for k, c := range s.stats {
		out.PerKind[k] = c.snapshot()
	}
	s.statsMu.Unlock()
	return out
}

// CountBypass records a request that skipped the store by caller policy
// (e.g. a request whose inputs have no content key).
func (s *Store) CountBypass(k Kind) {
	s.counters(k).bypasses.Add(1)
	if m := s.metrics.Load(); m != nil {
		m.bypasses.Add(1)
	}
}

// Enabled reports whether any tier can serve this store.
func (s *Store) Enabled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.budget > 0 || s.dir != ""
}

// GetOrCompute returns the artifact at (codec.Kind, key), looking through
// the memory tier, then the disk tier, then running compute. The returned
// value is shared between callers and MUST be treated as immutable.
// Compute errors are returned to every waiter of this flight but are not
// memoized: a later call retries.
func (s *Store) GetOrCompute(c Codec, key Key, compute func() (any, error)) (any, error) {
	kc := s.counters(c.Kind())
	m := s.metrics.Load()

	s.mu.Lock()
	if s.budget <= 0 && s.dir == "" {
		s.mu.Unlock()
		kc.bypasses.Add(1)
		if m != nil {
			m.bypasses.Add(1)
		}
		return compute()
	}
	ek := entryKey{c.Kind(), key}
	if e, ok := s.entries[ek]; ok {
		s.order.MoveToFront(e.elem)
		s.mu.Unlock()
		<-e.done
		kc.memHits.Add(1)
		if m != nil {
			m.memHits.Add(1)
		}
		return e.val, e.err
	}
	e := &entry{ek: ek, done: make(chan struct{})}
	e.elem = s.order.PushFront(e)
	s.entries[ek] = e
	dir := s.dir
	s.mu.Unlock()

	val, fromDisk := any(nil), false
	var err error
	if dir != "" {
		val, fromDisk = s.diskLoad(dir, c, key, kc, m)
	}
	if fromDisk {
		kc.diskHits.Add(1)
		if m != nil {
			m.diskHits.Add(1)
		}
	} else {
		val, err = compute()
		kc.misses.Add(1)
		if m != nil {
			m.misses.Add(1)
		}
		if err == nil && dir != "" {
			s.diskWrite(dir, c, key, val, kc, m)
		}
	}

	e.val, e.err = val, err
	if err == nil {
		if sz := c.Size(val); sz > 0 {
			e.size = sz
		} else {
			e.size = 1
		}
	}
	close(e.done)

	s.mu.Lock()
	cur, ok := s.entries[ek]
	if err != nil {
		// Never memoize failures: drop the entry so a later call retries.
		if ok && cur == e {
			delete(s.entries, ek)
			s.order.Remove(e.elem)
		}
	} else if ok && cur == e {
		s.bytes += e.size
		s.evictLocked()
		s.gaugeBytes(s.bytes)
	}
	s.mu.Unlock()
	return val, err
}

// evictLocked drops completed least-recently-used entries until the byte
// budget holds. In-flight entries are skipped: they are pinned by their
// waiters and carry no accounted size yet. Callers hold mu.
func (s *Store) evictLocked() {
	if s.budget <= 0 {
		return
	}
	m := s.metrics.Load()
	for el := s.order.Back(); el != nil && s.bytes > s.budget; {
		prev := el.Prev()
		e := el.Value.(*entry)
		select {
		case <-e.done:
			delete(s.entries, e.ek)
			s.order.Remove(el)
			s.bytes -= e.size
			s.counters(e.ek.kind).evictions.Add(1)
			if m != nil {
				m.evictions.Add(1)
			}
		default:
			// Still computing; pinned.
		}
		el = prev
	}
}
