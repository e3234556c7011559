package capture

import (
	"fmt"

	"ltefp/internal/artifact"
)

// The capture corpus behind an experiment run is heavily repetitive: every
// table and figure replays (seed, profile, app-mix) scenarios that are
// bit-for-bit reproducible, and a benchmark or a sweep replays whole
// campaigns. RunCached memoizes Run through the process-wide artifact
// store (internal/artifact), so identical scenarios are simulated once and
// every further request returns the same immutable *Capture — from memory
// within a process, and from the persistent disk tier across processes
// when one is enabled.
//
// Memoization semantics:
//
//   - The key covers everything that influences the simulation: seed,
//     settle time, sniffer configuration (loss/corruption/direction),
//     profile-loss application, every cell's ID and full operator profile,
//     and every session's UE name, cell, timing, drift day, and traffic
//     (app identity, or the full pre-built arrival stream).
//   - The Metrics scope is deliberately NOT part of the key, and a
//     metrics-enabled scenario goes through the store like any other:
//     counters measure computed work (only the call that simulates records
//     sniffer and scheduler counts); served work shows on the store's
//     cache counters. Output bytes are identical either way.
//   - Workers is deliberately NOT part of the key either: the fabric's
//     worker-count invariance makes the output byte-identical at every
//     setting, so captures memoized by a serial run are shared with
//     parallel requests and vice versa.
//   - A cached *Capture is shared between callers and MUST be treated as
//     immutable; all of its accessors (UserTrace, Mapper queries) are
//     read-only and safe for concurrent use.
//   - Sessions driven by a generator app are keyed by the app's registry
//     identity (Name, Category). A session with an unnamed generator app
//     is not hashable and bypasses the cache.
//
// The in-memory tier is bytes-bounded, not entry-bounded: a population
// capture runs to ~90 MB where a standard one is ~1 MB, so an entry count
// silently admits multi-GB residency. Sizes are accounted approximately
// per entry (slice lengths × element footprints, see captureCodec.Size)
// and least-recently-used captures are evicted past the budget.

// CacheStats is a snapshot of the capture cache's effectiveness counters.
type CacheStats struct {
	// Hits counts RunCached calls served from the in-memory tier
	// (including calls that waited for an in-flight simulation of the same
	// scenario).
	Hits int64
	// DiskHits counts RunCached calls served by decoding a validated
	// persistent-tier entry.
	DiskHits int64
	// Misses counts RunCached calls that simulated and populated an entry.
	Misses int64
	// Bypasses counts RunCached calls that skipped the cache (unhashable
	// scenario, or cache disabled).
	Bypasses int64
	// Evictions counts entries dropped by the memory tier's byte budget.
	Evictions int64
	// Entries and BytesUsed describe the memory tier of the whole shared
	// artifact store (all kinds, not just captures).
	Entries   int
	BytesUsed int64
}

// SetCacheBytes re-bounds the shared artifact store's in-memory tier to n
// bytes and returns the previous bound. n <= 0 disables in-memory
// memoization entirely (RunCached degrades to Run unless a disk tier is
// enabled) and drops the current contents. The budget is shared with the
// other cached artifact kinds (feature matrices, datasets, forests).
func SetCacheBytes(n int64) int64 {
	return artifact.Default.SetMemoryBudget(n)
}

// ResetCache drops every in-memory artifact-store entry and zeroes the
// statistics. Persistent-tier entries are kept; they re-validate on read.
func ResetCache() {
	artifact.Default.Reset()
}

// ReadCacheStats reports the capture kind's effectiveness counters.
func ReadCacheStats() CacheStats {
	st := artifact.Default.ReadStats()
	ks := st.PerKind[artifact.KindCapture]
	return CacheStats{
		Hits:      ks.MemHits,
		DiskHits:  ks.DiskHits,
		Misses:    ks.Misses,
		Bypasses:  ks.Bypasses,
		Evictions: ks.Evictions,
		Entries:   st.Entries,
		BytesUsed: st.BytesUsed,
	}
}

// RunCached executes the scenario through the artifact store: the first
// request for a scenario simulates it via Run, concurrent requests for the
// same scenario wait for that one simulation, and later requests return
// the memoized result. The returned Capture is shared and immutable.
func RunCached(sc Scenario) (*Capture, error) {
	key, hashable := ScenarioKey(sc)
	if !hashable {
		artifact.Default.CountBypass(artifact.KindCapture)
		return Run(sc)
	}
	v, err := artifact.Default.GetOrCompute(captureCodec{}, key, func() (any, error) {
		return Run(sc)
	})
	if err != nil {
		return nil, err
	}
	return v.(*Capture), nil
}

// ScenarioKey derives the content key of a scenario. The boolean is false
// when the scenario cannot be keyed by content (a generator app without a
// registry name), in which case callers must run uncached. Derived
// artifacts (feature matrices) fold this key into their own.
func ScenarioKey(sc Scenario) (artifact.Key, bool) {
	h := artifact.NewHasher("ltefp-capture-key-v4")
	h.U64(sc.Seed)
	h.Duration(sc.Settle)
	h.U64(uint64(sc.Population))
	h.Bool(sc.ApplyProfileLoss)
	h.F64(sc.Sniffer.LossProb)
	h.F64(sc.Sniffer.CorruptProb)
	h.Bool(sc.Sniffer.DownlinkOnly)
	h.Bool(sc.Sniffer.UplinkOnly)

	h.U64(uint64(len(sc.Cells)))
	for _, c := range sc.Cells {
		h.U64(uint64(c.ID))
		// The operator profile is a flat struct of scalars; its Go-syntax
		// rendering is a complete, deterministic serialisation.
		h.Str(fmt.Sprintf("%#v", c.Profile))
	}

	h.U64(uint64(len(sc.Sessions)))
	for _, s := range sc.Sessions {
		h.Str(s.UE)
		h.U64(uint64(s.CellID))
		h.U64(uint64(s.Day))
		h.Duration(s.Start)
		h.Duration(s.Duration)
		if s.Arrivals != nil {
			h.U64(uint64(len(s.Arrivals)))
			for _, a := range s.Arrivals {
				h.Duration(a.At)
				h.U64(uint64(a.Dir))
				h.U64(uint64(a.Bytes))
			}
		} else {
			if s.App.Name == "" {
				return artifact.Key{}, false
			}
			h.U64(^uint64(0)) // marks "generator app", distinct from any arrival count
			h.Str(s.App.Name)
			h.U64(uint64(s.App.Category))
		}
	}

	h.U64(uint64(len(sc.Moves)))
	for _, m := range sc.Moves {
		h.Str(m.UE)
		h.U64(uint64(m.ToCell))
		h.Duration(m.At)
		h.Bool(m.Handover)
	}
	return h.Key(), true
}
