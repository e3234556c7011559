// Package trace defines the attacker-side data model: the (timestamp,
// RNTI, direction, transport-block-size) tuples a passive PDCCH sniffer
// records, and the grouping, session-splitting, and sliding-window
// operations the paper's preprocessing step ③ applies to them before
// feature extraction.
package trace

import (
	"fmt"
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

// FilterRNTI keeps only records addressed to the given RNTI.
func (t Trace) FilterRNTI(r rnti.RNTI) Trace {
	out := make(Trace, 0, len(t))
	for _, rec := range t {
		if rec.RNTI == r {
			out = append(out, rec)
		}
	}
	return out
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

// ByRNTI groups the trace per RNTI, preserving time order within groups.
func (t Trace) ByRNTI() map[rnti.RNTI]Trace {
	out := make(map[rnti.RNTI]Trace)
	for _, rec := range t {
		out[rec.RNTI] = append(out[rec.RNTI], rec)
	}
	return out
}

// SplitSessions cuts the trace wherever consecutive records are separated
// by more than gap — the radio-layer notion of an application session
// boundary (the same silence that triggers an RRC release).
func (t Trace) SplitSessions(gap time.Duration) []Trace {
	if len(t) == 0 {
		return nil
	}
	var out []Trace
	start := 0
	for i := 1; i < len(t); i++ {
		if t[i].At-t[i-1].At > gap {
			out = append(out, t[start:i])
			start = i
		}
	}
	return append(out, t[start:])
}

// Window is one fixed-width slice of a trace.
type Window struct {
	// Start is the window's opening time.
	Start time.Duration
	// Records are the observations with Start <= At < Start+width.
	Records Trace
}

// Windows splits the trace into sliding windows of the given width moved
// by stride (width == stride gives the paper's non-overlapping 100 ms
// aggregation). Empty windows inside the span are included: silence is
// signal for the classifier. It panics if width or stride is not positive.
func (t Trace) Windows(width, stride time.Duration) []Window {
	return t.WindowsInto(nil, width, stride)
}

// WindowsInto is Windows appending into dst (typically a reused buffer
// sliced to length zero), so repeated windowing of same-sized traces does
// not reallocate the window slice. The returned windows alias t's backing
// array, as with Windows.
func (t Trace) WindowsInto(dst []Window, width, stride time.Duration) []Window {
	if width <= 0 || stride <= 0 {
		panic(fmt.Sprintf("trace: invalid window width %v / stride %v", width, stride))
	}
	if len(t) == 0 {
		return dst
	}
	first := t[0].At - t[0].At%stride
	last := t[len(t)-1].At
	out := dst
	i := 0
	for start := first; start <= last; start += stride {
		end := start + width
		// Advance i to the first record at or after start (records are
		// time-ordered; stride may skip some when stride > width).
		for i < len(t) && t[i].At < start {
			i++
		}
		j := i
		for j < len(t) && t[j].At < end {
			j++
		}
		out = append(out, Window{Start: start, Records: t[i:j]})
	}
	return out
}

// NonEmptyWindows filters Windows output down to windows holding records.
func NonEmptyWindows(ws []Window) []Window {
	out := make([]Window, 0, len(ws))
	for _, w := range ws {
		if len(w.Records) > 0 {
			out = append(out, w)
		}
	}
	return out
}
