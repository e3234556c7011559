// Package trace defines the attacker-side data model: the (timestamp,
// RNTI, direction, transport-block-size) tuples a passive PDCCH sniffer
// records, and the time and direction filters applied to them. The
// sliding-window step of the paper's preprocessing ③ lives in package
// features, which windows a trace as it extracts features.
package trace

import (
	"sort"
	"time"

	"ltefp/internal/lte/dci"
	"ltefp/internal/lte/rnti"
)

// Record is one decoded DCI observation.
type Record struct {
	// At is the capture timestamp.
	At time.Duration
	// CellID identifies which sniffer position captured the record.
	CellID int
	// RNTI is the recovered radio identifier.
	RNTI rnti.RNTI
	// Dir is the scheduled transfer direction.
	Dir dci.Direction
	// Bytes is the transport block size — the paper's frame size feature.
	Bytes int
}

// Trace is a time-ordered sequence of records.
type Trace []Record

// Sort orders the trace by time (stable on ties).
func (t Trace) Sort() {
	sort.SliceStable(t, func(i, j int) bool { return t[i].At < t[j].At })
}

// Duration returns the time span between first and last record.
func (t Trace) Duration() time.Duration {
	if len(t) == 0 {
		return 0
	}
	return t[len(t)-1].At - t[0].At
}

// TotalBytes sums the transport block sizes.
func (t Trace) TotalBytes() int {
	n := 0
	for _, r := range t {
		n += r.Bytes
	}
	return n
}

// FilterDirection keeps only records of the given direction (a sniffer
// covering a sole downlink or uplink channel, as in Tables III and IV).
// The result is sized exactly: a counting pass precedes the one allocation.
func (t Trace) FilterDirection(d dci.Direction) Trace {
	n := 0
	for i := range t {
		if t[i].Dir == d {
			n++
		}
	}
	out := make(Trace, 0, n)
	for _, r := range t {
		if r.Dir == d {
			out = append(out, r)
		}
	}
	return out
}

// SplitDirection partitions the trace into uplink and downlink records in
// a single pass, preserving time order. Callers that need both directions
// (the correlation attack's per-user series, per-user traffic summaries)
// use this instead of two FilterDirection scans. Records with an unset
// direction appear in neither half, matching FilterDirection's behaviour.
func (t Trace) SplitDirection() (ul, dl Trace) {
	nUL := 0
	for _, r := range t {
		if r.Dir == dci.Uplink {
			nUL++
		}
	}
	ul = make(Trace, 0, nUL)
	dl = make(Trace, 0, len(t)-nUL)
	for _, r := range t {
		switch r.Dir {
		case dci.Uplink:
			ul = append(ul, r)
		case dci.Downlink:
			dl = append(dl, r)
		}
	}
	return ul, dl
}

// FilterSpan keeps records with from <= At < to.
func (t Trace) FilterSpan(from, to time.Duration) Trace {
	out := make(Trace, 0, len(t))
	for _, rec := range t {
		if rec.At >= from && rec.At < to {
			out = append(out, rec)
		}
	}
	return out
}
