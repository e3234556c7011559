package ltefp

import "ltefp/internal/artifact"

// CacheStats summarises the process-wide artifact store: the two-tier
// content-addressed cache behind captures, window matrices, assembled
// datasets, and trained forests.
type CacheStats struct {
	// MemHits/DiskHits/Misses/Bypasses count lookups by outcome across
	// every artifact kind.
	MemHits  int64
	DiskHits int64
	Misses   int64
	Bypasses int64
	// Entries/BytesUsed describe the resident memory tier.
	Entries   int
	BytesUsed int64
}

// SetCacheDir enables (non-empty) or disables (empty) the artifact
// store's persistent disk tier. Entries are written atomically and
// self-validated on read — a corrupted, truncated, or version-skewed file
// is discarded and recomputed, never trusted — so a directory may be
// shared by concurrent processes and reused across runs. The directory is
// created if missing.
func SetCacheDir(dir string) error {
	return artifact.Default.SetDir(dir)
}

// CacheDir returns the disk tier's directory ("" when disabled).
func CacheDir() string {
	return artifact.Default.Dir()
}

// SetCacheBytes rebudgets the in-memory cache tier (default 512 MiB),
// returning the previous budget. Zero or negative drops every resident
// entry and disables the memory tier; the disk tier, if configured, keeps
// working.
func SetCacheBytes(n int64) int64 {
	return artifact.Default.SetMemoryBudget(n)
}

// ResetCache drops every in-memory cache entry and zeroes the statistics.
// Disk entries survive (each one re-validates on read).
func ResetCache() {
	artifact.Default.Reset()
}

// ReadCacheStats snapshots the artifact store's counters, aggregated over
// every artifact kind.
func ReadCacheStats() CacheStats {
	st := artifact.Default.ReadStats()
	tot := st.Total()
	return CacheStats{
		MemHits:   tot.MemHits,
		DiskHits:  tot.DiskHits,
		Misses:    tot.Misses,
		Bypasses:  tot.Bypasses,
		Entries:   st.Entries,
		BytesUsed: st.BytesUsed,
	}
}
