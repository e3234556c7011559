// Cross-cell target tracking: the LTrack-style extension of identity
// mapping. Plaintext RNTI↔TMSI bindings only exist where a UE performs
// contention-based access; a handover admits the UE into the target cell
// via non-contention RACH, exposing no identity at all. The tracker closes
// that gap by chaining anonymous admissions to the victim's last known
// segment on timing (an admission right after the tracked RNTI fell
// silent) and traffic-fingerprint continuity (the app's rate and direction
// mix survive the cell change), re-identifying the target across cells
// despite RNTI churn and TMSI reallocation.
package identity

import (
	"sort"
	"time"

	"ltefp/internal/lte/dci"
	"ltefp/internal/lte/rnti"
	"ltefp/internal/sniffer"
	"ltefp/internal/trace"
)

// LinkKind says how a tracked segment was attributed to the target.
type LinkKind int

const (
	// LinkSeed is a plaintext RNTI↔TMSI binding for a known target TMSI.
	LinkSeed LinkKind = iota
	// LinkTMSI is a later plaintext binding matching another of the
	// target's known TMSIs (after GUTI reallocation).
	LinkTMSI
	// LinkHandover is an anonymous admission chained to the previous
	// segment by timing and traffic continuity.
	LinkHandover
)

// String renders the link kind.
func (k LinkKind) String() string {
	switch k {
	case LinkSeed:
		return "seed"
	case LinkTMSI:
		return "tmsi"
	case LinkHandover:
		return "handover"
	}
	return "unknown"
}

// Segment is one continuous stretch of the target's radio activity under
// one RNTI in one cell, as attributed by the tracker.
type Segment struct {
	CellID int
	RNTI   rnti.RNTI
	// TMSI is the target identity this segment is attributed to. For
	// handover links it is inherited from the chained-from segment, not
	// observed on air.
	TMSI uint32
	// Observed reports whether the TMSI was seen in plaintext during this
	// segment (false for handover-chained segments).
	Observed bool
	// From and To bound the segment's observed activity.
	From, To time.Duration
	// Link says how the segment was attributed.
	Link LinkKind
	// Confidence is 1 for plaintext links and the traffic-continuity score
	// in (0, 1] for handover links.
	Confidence float64
}

// TrackConfig tunes the cross-cell tracker.
type TrackConfig struct {
	// TMSIs are the target's known identities (the paper's threat model
	// grants the attacker the victim's TMSI history; ground truth supplies
	// it in simulation).
	TMSIs []uint32
	// HandoverWindow bounds how long after a tracked RNTI falls silent an
	// anonymous admission elsewhere may still be chained (default 500 ms:
	// the handover procedure plus scheduling slack).
	HandoverWindow time.Duration
	// ContinuityWindow is how much traffic on each side of the cell change
	// feeds the continuity score (default 1 s).
	ContinuityWindow time.Duration
	// MinContinuity rejects chains whose traffic profiles disagree
	// (default 0.35).
	MinContinuity float64
	// IdleGap is the silence that ends a segment — the operator's
	// inactivity release observed passively (default 12 s).
	IdleGap time.Duration
}

func (c *TrackConfig) defaults() {
	if c.HandoverWindow <= 0 {
		c.HandoverWindow = 500 * time.Millisecond
	}
	if c.ContinuityWindow <= 0 {
		c.ContinuityWindow = time.Second
	}
	if c.MinContinuity <= 0 {
		c.MinContinuity = 0.35
	}
	if c.IdleGap <= 0 {
		c.IdleGap = 12 * time.Second
	}
}

// burst is one continuous stretch of activity of one (cell, RNTI): the
// tracker's unit of attribution.
type burst struct {
	cell      int
	r         rnti.RNTI
	recs      trace.Trace // time-ordered view into the caller's records
	anonymous bool        // no plaintext identity near the start
	claimed   bool
}

func (b *burst) from() time.Duration { return b.recs[0].At }
func (b *burst) to() time.Duration   { return b.recs[len(b.recs)-1].At }

// identityLead is how far a plaintext binding may precede a burst's first
// data record (msg3/msg4 precede the first scheduled data) and identityLag
// how far it may trail it, for the burst still to count as identified.
const (
	identityLead = 200 * time.Millisecond
	identityLag  = 50 * time.Millisecond
)

// buildBursts splits every (cell, RNTI)'s records into bursts separated by
// idleGap silence, marking bursts that start without a nearby plaintext
// binding as anonymous. Bursts are returned sorted by start time.
func buildBursts(events []sniffer.IdentityEvent, records trace.Trace, idleGap time.Duration) []*burst {
	byKey := make(map[cellRNTI]trace.Trace)
	var keys []cellRNTI
	for _, rec := range records {
		k := cellRNTI{rec.CellID, rec.RNTI}
		if _, ok := byKey[k]; !ok {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], rec)
	}
	evTimes := make(map[cellRNTI][]time.Duration)
	for _, e := range events {
		k := cellRNTI{e.CellID, e.RNTI}
		evTimes[k] = append(evTimes[k], e.At)
	}
	for _, ts := range evTimes {
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	}
	identified := func(k cellRNTI, start time.Duration) bool {
		for _, t := range evTimes[k] {
			if t >= start-identityLead && t <= start+identityLag {
				return true
			}
		}
		return false
	}
	var out []*burst
	for _, k := range keys {
		recs := byKey[k]
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].At < recs[j].At })
		lo := 0
		for i := 1; i <= len(recs); i++ {
			if i == len(recs) || recs[i].At-recs[i-1].At > idleGap {
				seg := recs[lo:i]
				out = append(out, &burst{
					cell: k.cell, r: k.r, recs: seg,
					anonymous: !identified(k, seg[0].At),
				})
				lo = i
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.from() != b.from() {
			return a.from() < b.from()
		}
		if a.cell != b.cell {
			return a.cell < b.cell
		}
		return a.r < b.r
	})
	return out
}

// profile summarises one side of a cell change for continuity scoring.
type profile struct {
	ul, dl int64 // bytes by direction
	n      int64 // records
}

func profileOf(recs trace.Trace, from, to time.Duration) profile {
	var p profile
	for _, r := range recs {
		if r.At < from || r.At >= to {
			continue
		}
		if r.Dir == dci.Downlink {
			p.dl += int64(r.Bytes)
		} else {
			p.ul += int64(r.Bytes)
		}
		p.n++
	}
	return p
}

// ratioSim compares two magnitudes as min/max in [0, 1]; two silences
// agree perfectly, silence against traffic not at all.
func ratioSim(a, b int64) float64 {
	if a == b {
		return 1
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi == 0 {
		return 1
	}
	return float64(lo) / float64(hi)
}

// continuity scores how plausibly the traffic after a cell change
// continues the traffic before it: the mean ratio similarity of uplink
// volume, downlink volume, and scheduling density across the change.
func continuity(pre, post profile) float64 {
	return (ratioSim(pre.ul, post.ul) + ratioSim(pre.dl, post.dl) + ratioSim(pre.n, post.n)) / 3
}

// Track reconstructs the target's cross-cell timeline. Plaintext bindings
// for the configured TMSIs seed segments; every segment end is then
// checked against anonymous admissions in other cells within the handover
// window, and the best traffic-continuity candidate above the threshold
// extends the chain — hop after hop, until the trail goes cold. The chain
// is anonymous because the handover command is sent encrypted: a sniffer
// reads neither the target cell nor the new C-RNTI from it.
func Track(events []sniffer.IdentityEvent, records trace.Trace, cfg TrackConfig) []Segment {
	cfg.defaults()
	want := make(map[uint32]struct{}, len(cfg.TMSIs))
	for _, t := range cfg.TMSIs {
		want[t] = struct{}{}
	}
	bursts := buildBursts(events, records, cfg.IdleGap)

	// Index plaintext bindings of the target's TMSIs by (cell, RNTI) and
	// time, to seed and re-seed the chain.
	type seedEv struct {
		at   time.Duration
		tmsi uint32
	}
	seedsByKey := make(map[cellRNTI][]seedEv)
	for _, e := range events {
		if !e.HasTMSI {
			continue
		}
		if _, ok := want[e.TMSI]; !ok {
			continue
		}
		k := cellRNTI{e.CellID, e.RNTI}
		seedsByKey[k] = append(seedsByKey[k], seedEv{e.At, e.TMSI})
	}

	type tracked struct {
		b    *burst
		seg  Segment
		hops int
	}
	var chain []tracked

	// Seed: bursts whose start is bound to a target TMSI in plaintext.
	first := true
	for _, b := range bursts {
		if b.anonymous || b.claimed {
			continue
		}
		k := cellRNTI{b.cell, b.r}
		for _, se := range seedsByKey[k] {
			if se.at >= b.from()-identityLead && se.at <= b.from()+identityLag {
				link := LinkTMSI
				if first {
					link = LinkSeed
					first = false
				}
				b.claimed = true
				chain = append(chain, tracked{b: b, seg: Segment{
					CellID: b.cell, RNTI: b.r, TMSI: se.tmsi, Observed: true,
					From: b.from(), To: b.to(), Link: link, Confidence: 1,
				}})
				break
			}
		}
	}

	// Chain: process segment ends in time order; each may hand the trail
	// to one anonymous admission elsewhere.
	for i := 0; i < len(chain); i++ {
		// Always extend from the earliest-ending unprocessed segment so
		// multi-hop itineraries chain in timeline order.
		for j := i + 1; j < len(chain); j++ {
			if chain[j].seg.To < chain[i].seg.To {
				chain[i], chain[j] = chain[j], chain[i]
			}
		}
		cur := chain[i]
		handAt := cur.seg.To
		pre := profileOf(cur.b.recs, handAt-cfg.ContinuityWindow, handAt+1)
		var best *burst
		bestScore := 0.0
		for _, cand := range bursts {
			if !cand.anonymous || cand.claimed || cand.cell == cur.seg.CellID {
				continue
			}
			if cand.from() <= handAt-identityLag || cand.from() > handAt+cfg.HandoverWindow {
				continue
			}
			post := profileOf(cand.recs, cand.from(), cand.from()+cfg.ContinuityWindow)
			if score := continuity(pre, post); score > bestScore ||
				(score == bestScore && best != nil && cand.from() < best.from()) {
				best, bestScore = cand, score
			}
		}
		if best == nil || bestScore < cfg.MinContinuity {
			continue
		}
		best.claimed = true
		chain = append(chain, tracked{b: best, hops: cur.hops + 1, seg: Segment{
			CellID: best.cell, RNTI: best.r, TMSI: cur.seg.TMSI, Observed: false,
			From: best.from(), To: best.to(), Link: LinkHandover,
			Confidence: bestScore * cur.seg.Confidence,
		}})
	}

	out := make([]Segment, len(chain))
	for i, tr := range chain {
		out[i] = tr.seg
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].From < out[j].From })
	return out
}

// TraceFor extracts every record covered by the tracked segments — the
// target's reconstructed cross-cell radio trace.
func TraceFor(segments []Segment, records trace.Trace) trace.Trace {
	var out trace.Trace
	for _, rec := range records {
		for i := range segments {
			s := &segments[i]
			if rec.CellID == s.CellID && rec.RNTI == s.RNTI &&
				rec.At >= s.From && rec.At <= s.To {
				out = append(out, rec)
				break
			}
		}
	}
	out.Sort()
	return out
}
