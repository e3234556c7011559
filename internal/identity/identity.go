// Package identity implements the paper's step ①, target identity mapping:
// binding the ephemeral RNTIs a sniffer observes to stable subscriber
// identities (TMSIs) by reading the plaintext contention-resolution echo of
// the RRC connection setup (Rupprecht et al.'s passive method). The result
// is a per-user view of the capture: every RNTI interval a TMSI held, and
// therefore every radio-layer record attributable to that user — the
// prerequisite for fingerprinting a *specific* victim rather than a cell.
package identity

import (
	"math/bits"
	"sort"
	"time"

	"ltefp/internal/lte/rnti"
	"ltefp/internal/sniffer"
	"ltefp/internal/trace"
)

// Interval is one continuous assignment of an RNTI to a subscriber within
// one cell, as reconstructed by the attacker.
type Interval struct {
	CellID int
	RNTI   rnti.RNTI
	TMSI   uint32
	// From is when the binding was observed (connection setup).
	From time.Duration
	// To is when the binding provably ended: the RNTI was re-bound, or
	// activity ceased for longer than the idle gap. Open intervals carry
	// the maximum duration.
	To time.Duration
}

// openEnd marks an interval not yet closed by a later observation.
const openEnd = time.Duration(1<<63 - 1)

// Mapper holds the reconstructed RNTI↔TMSI timeline.
type Mapper struct {
	intervals []Interval
	byTMSI    map[uint32][]int // indices into intervals
}

// cellRNTI keys per-cell RNTI timelines.
type cellRNTI struct {
	cell int
	r    rnti.RNTI
}

// Build reconstructs the identity map from a capture: the sniffer's setup
// events open bindings; a later event for the same (cell, RNTI) closes the
// previous one; and a binding also closes once its RNTI has been silent for
// idleGap (the operator's inactivity release, observed as silence).
func Build(events []sniffer.IdentityEvent, records trace.Trace, idleGap time.Duration) *Mapper {
	evs := make([]sniffer.IdentityEvent, len(events))
	copy(evs, events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })

	m := &Mapper{byTMSI: make(map[uint32][]int)}
	open := make(map[cellRNTI]int) // open interval index per cell+RNTI

	// Last-activity times per cell+RNTI, for idle-gap closing.
	lastSeen := make(map[cellRNTI][]time.Duration)
	for _, rec := range records {
		k := cellRNTI{rec.CellID, rec.RNTI}
		lastSeen[k] = append(lastSeen[k], rec.At)
	}

	for _, e := range evs {
		k := cellRNTI{e.CellID, e.RNTI}
		if idx, ok := open[k]; ok {
			m.intervals[idx].To = e.At
			delete(open, k)
		}
		if !e.HasTMSI {
			// Random-identity connection: closes the previous binding but
			// opens nothing trackable.
			continue
		}
		open[k] = len(m.intervals)
		m.intervals = append(m.intervals, Interval{
			CellID: e.CellID, RNTI: e.RNTI, TMSI: e.TMSI, From: e.At, To: openEnd,
		})
	}

	// Close remaining intervals at the end of their continuous activity:
	// the binding survives as long as consecutive observations are closer
	// together than the idle gap; the first longer silence releases the
	// RNTI, so later records belong to whoever it was reassigned to.
	for k, idx := range open {
		iv := &m.intervals[idx]
		times := lastSeen[k]
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		end := iv.From + idleGap
		for _, tm := range times {
			if tm < iv.From {
				continue
			}
			if tm > end {
				break // silence exceeded the idle gap: activity after this is not ours
			}
			end = tm + idleGap
		}
		iv.To = end
	}
	for i := range m.intervals {
		iv := &m.intervals[i]
		m.byTMSI[iv.TMSI] = append(m.byTMSI[iv.TMSI], i)
	}
	return m
}

// FromIntervals reconstructs a Mapper from a previously extracted interval
// timeline (Intervals), rebuilding the per-TMSI index. Round-trip
// contract: FromIntervals(m.Intervals()) answers every query exactly as m
// does — the intervals slice is the Mapper's complete state.
func FromIntervals(ivs []Interval) *Mapper {
	m := &Mapper{
		intervals: make([]Interval, len(ivs)),
		byTMSI:    make(map[uint32][]int),
	}
	copy(m.intervals, ivs)
	for i := range m.intervals {
		m.byTMSI[m.intervals[i].TMSI] = append(m.byTMSI[m.intervals[i].TMSI], i)
	}
	return m
}

// Intervals returns every reconstructed binding, in observation order.
func (m *Mapper) Intervals() []Interval {
	out := make([]Interval, len(m.intervals))
	copy(out, m.intervals)
	return out
}

// UserTrace extracts, from a capture, every record attributable to a user
// known by any of the given TMSIs (a user holds several TMSIs over time as
// the core reallocates them). The result is time-ordered and sized
// exactly: one matching pass marks and counts the attributable records in
// a bitset (one bit per record), and the result is allocated once and
// filled from the marks without matching again.
func (m *Mapper) UserTrace(records trace.Trace, tmsis ...uint32) trace.Trace {
	want := make(map[uint32]struct{}, len(tmsis))
	for _, t := range tmsis {
		want[t] = struct{}{}
	}
	var ivs []Interval
	for _, iv := range m.intervals {
		if _, ok := want[iv.TMSI]; ok {
			ivs = append(ivs, iv)
		}
	}
	marks := make([]uint64, (len(records)+63)/64)
	n := 0
	for i, rec := range records {
		for _, iv := range ivs {
			if rec.CellID == iv.CellID && rec.RNTI == iv.RNTI &&
				rec.At >= iv.From && rec.At < iv.To {
				marks[i/64] |= 1 << (i % 64)
				n++
				break
			}
		}
	}
	if n == 0 {
		return nil
	}
	out := make(trace.Trace, 0, n)
	for w, word := range marks {
		for ; word != 0; word &= word - 1 {
			out = append(out, records[w*64+bits.TrailingZeros64(word)])
		}
	}
	out.Sort()
	return out
}

// TMSIs returns every subscriber identity observed, sorted.
func (m *Mapper) TMSIs() []uint32 {
	out := make([]uint32, 0, len(m.byTMSI))
	for t := range m.byTMSI {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
