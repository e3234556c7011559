// Package sniffer implements the attacker's capture equipment: a passive
// PDCCH observer that blind-decodes every DCI it receives by re-computing
// the CRC16 over the payload and XOR-ing it with the received parity bits,
// recovering the addressed RNTI without any key material — the same
// technique the OWL and FALCON tools use and the paper's data-acquisition
// step ② relies on. The sniffer additionally reads the handful of plaintext
// pre-security messages (random access responses, RRC connection setup
// with its contention-resolution identity, paging records), which feed the
// identity-mapping step ①.
//
// The sniffer is honest: it sees only phy.Subframe contents, never
// simulator-internal state, and its capture is degraded by a configurable
// loss and corruption model standing in for real-world decode failures.
package sniffer

import (
	"slices"
	"time"

	"ltefp/internal/lte/crc"
	"ltefp/internal/lte/dci"
	"ltefp/internal/lte/phy"
	"ltefp/internal/lte/rnti"
	"ltefp/internal/lte/rrc"
	"ltefp/internal/obs"
	"ltefp/internal/sim"
	"ltefp/internal/trace"
)

// BaselineCorruption is the decode-corruption rate every attacker
// capture applies: blind PDCCH decoding always yields a trickle of bogus
// candidates that the plausibility filter must remove.
const BaselineCorruption = 0.002

// Config controls a sniffer's capture fidelity and coverage.
type Config struct {
	// LossProb is the probability a PDCCH message is missed entirely.
	LossProb float64
	// CorruptProb is the probability a captured payload is bit-corrupted,
	// producing a bogus RNTI/DCI that the plausibility filter must reject.
	CorruptProb float64
	// Downlink and Uplink select which scheduling directions the sniffer
	// records. The paper's threat model needs one sniffer per channel; a
	// default-constructed config with both false records both (the lab
	// Down+Up setting).
	DownlinkOnly bool
	UplinkOnly   bool
	// Metrics, when enabled, receives decode-health counters under this
	// scope (candidates, crc_matches, lost, corrupt_caught, ...). The zero
	// Scope disables instrumentation at no cost.
	Metrics obs.Scope
}

// IdentityEvent is an RNTI↔TMSI binding observed in plaintext during
// connection establishment (msg4's contention resolution identity).
type IdentityEvent struct {
	At     time.Duration
	CellID int
	RNTI   rnti.RNTI
	TMSI   uint32
	// HasTMSI is false when the UE connected with a random identity, which
	// yields no stable mapping.
	HasTMSI bool
}

// PagingEvent is a TMSI observed on the paging channel.
type PagingEvent struct {
	At     time.Duration
	CellID int
	TMSI   uint32
}

// Stats are a sniffer's capture-health counters. Candidates counts every
// PDCCH transmission the sniffer was offered; the remaining fields
// partition what became of them.
type Stats struct {
	// Candidates is the number of PDCCH candidates scanned (including ones
	// subsequently lost or rejected).
	Candidates int64
	// Captured is the number of user-plane records kept.
	Captured int64
	// Dropped is the number of candidates lost to the capture-loss model.
	Dropped int64
	// Corrupted is the number of payloads the corruption model bit-flipped.
	Corrupted int64
	// CorruptCaught counts corrupted payloads rejected at the decode stage
	// (CRC/format check), CorruptLeaked the ones that decoded anyway and
	// entered the record stream as ghost RNTIs for the plausibility filter.
	CorruptCaught int64
	CorruptLeaked int64
	// ParseRejects is the number of candidates (corrupted or not) that
	// failed DCI validation.
	ParseRejects int64
	// PlausibilityRejects is the number of captured records the last
	// validation pass (AppendValidated, or the DrainValidated +
	// FlushRejected sequence every capture runs) discarded for an
	// implausible RNTI. Unlike the funnel counters above it is a property
	// of the validated view, not of capture: re-validating the same records
	// reports the same value instead of accumulating.
	PlausibilityRejects int64
}

// Sniffer captures one cell's PDCCH. It implements enb.Observer.
type Sniffer struct {
	cfg Config
	rng *sim.RNG

	records trace.Trace
	ids     []IdentityEvent
	pagings []PagingEvent

	// counts is the OWL-style activity table the plausibility filter
	// reads: how many captured records carry each RNTI, indexed densely
	// by RNTI (the RNTI space is 16-bit), so the per-record bookkeeping of
	// the blind-decode loop is one increment without hashing.
	counts *[1 << 16]int32

	stats Stats
	m     snifferMetrics

	// Streaming-drain state (DrainValidated): the index of the first
	// record not yet drained, and per-RNTI record indices held back until
	// their RNTI passes the plausibility threshold.
	drained int
	pending map[rnti.RNTI][]int32
}

// snifferMetrics caches the scope's counter handles; with a disabled scope
// every field is nil and each update is a no-op method on a nil pointer.
type snifferMetrics struct {
	candidates          *obs.Counter
	crcMatches          *obs.Counter
	lost                *obs.Counter
	corrupted           *obs.Counter
	corruptCaught       *obs.Counter
	corruptLeaked       *obs.Counter
	parseRejects        *obs.Counter
	records             *obs.Counter
	plausibilityRejects *obs.Counter
	identityEvents      *obs.Counter
	pagingEvents        *obs.Counter
}

func newSnifferMetrics(sc obs.Scope) snifferMetrics {
	return snifferMetrics{
		candidates:          sc.Counter("candidates"),
		crcMatches:          sc.Counter("crc_matches"),
		lost:                sc.Counter("lost"),
		corrupted:           sc.Counter("corrupted"),
		corruptCaught:       sc.Counter("corrupt_caught"),
		corruptLeaked:       sc.Counter("corrupt_leaked"),
		parseRejects:        sc.Counter("parse_rejects"),
		records:             sc.Counter("records"),
		plausibilityRejects: sc.Counter("plausibility_rejects"),
		identityEvents:      sc.Counter("identity_events"),
		pagingEvents:        sc.Counter("paging_events"),
	}
}

// New returns a sniffer with the given capture configuration, using rng
// for its loss and corruption draws.
func New(cfg Config, rng *sim.RNG) *Sniffer {
	return &Sniffer{
		cfg:    cfg,
		rng:    rng,
		counts: new([1 << 16]int32),
		m:      newSnifferMetrics(cfg.Metrics),
	}
}

// Observe ingests one subframe. It implements enb.Observer.
func (s *Sniffer) Observe(cellID int, sf *phy.Subframe) {
	at := time.Duration(sf.Index) * sim.TTI
	for i := range sf.PDCCH {
		tx := &sf.PDCCH[i]
		s.stats.Candidates++
		s.m.candidates.Inc()
		if s.cfg.LossProb > 0 && s.rng.Bool(s.cfg.LossProb) {
			s.stats.Dropped++
			s.m.lost.Inc()
			continue
		}
		payload := tx.Payload
		maskedCRC := tx.MaskedCRC
		corrupted := s.cfg.CorruptProb > 0 && s.rng.Bool(s.cfg.CorruptProb)
		if corrupted {
			payload = s.corrupt(payload)
			s.stats.Corrupted++
			s.m.corrupted.Inc()
		}
		r := rnti.RNTI(crc.RecoverRNTI(payload, maskedCRC))
		msg, err := dci.Parse(payload)
		if err != nil {
			// Undecodable candidate, as a real blind decoder skips.
			s.stats.ParseRejects++
			s.m.parseRejects.Inc()
			if corrupted {
				s.stats.CorruptCaught++
				s.m.corruptCaught.Inc()
			}
			continue
		}
		s.m.crcMatches.Inc()
		if corrupted {
			s.stats.CorruptLeaked++
			s.m.corruptLeaked.Inc()
		}
		// Plaintext pre-security content rides on uncorrupted frames only.
		if !corrupted {
			s.inspectPlaintext(at, cellID, r, tx.Plaintext)
		}
		if !r.IsC() {
			continue // paging / RAR / SI scheduling, not user traffic
		}
		dir := msg.Format.Direction()
		if s.cfg.DownlinkOnly && dir != dci.Downlink {
			continue
		}
		if s.cfg.UplinkOnly && dir != dci.Uplink {
			continue
		}
		bytes, err := msg.TransportBlockBytes()
		if err != nil {
			continue
		}
		s.stats.Captured++
		s.m.records.Inc()
		s.records = append(s.records, trace.Record{
			At:     at,
			CellID: cellID,
			RNTI:   r,
			Dir:    dir,
			Bytes:  bytes,
		})
		s.counts[r]++
	}
}

// inspectPlaintext extracts identity-relevant plaintext. Two messages bind
// an RNTI to an identity: msg3 (the RRC connection request, on the uplink
// shared channel — visible only when the sniffer covers the uplink) and
// msg4 (the connection setup echoing the contention-resolution identity on
// the downlink). Reading both halves the chance a capture loss costs the
// attacker the binding.
func (s *Sniffer) inspectPlaintext(at time.Duration, cellID int, r rnti.RNTI, plaintext any) {
	switch m := plaintext.(type) {
	case rrc.ConnectionRequest:
		if s.cfg.DownlinkOnly {
			return // msg3 content rides on the PUSCH
		}
		s.m.identityEvents.Inc()
		s.ids = append(s.ids, IdentityEvent{
			At:      at,
			CellID:  cellID,
			RNTI:    r,
			TMSI:    m.Identity.TMSI,
			HasTMSI: m.Identity.HasTMSI,
		})
	case rrc.ConnectionSetup:
		if s.cfg.UplinkOnly {
			return // msg4 rides on the PDSCH
		}
		s.m.identityEvents.Inc()
		s.ids = append(s.ids, IdentityEvent{
			At:      at,
			CellID:  cellID,
			RNTI:    r,
			TMSI:    m.ContentionResolution.TMSI,
			HasTMSI: m.ContentionResolution.HasTMSI,
		})
	case rrc.Paging:
		if s.cfg.UplinkOnly {
			return
		}
		for _, rec := range m.Records {
			s.m.pagingEvents.Inc()
			s.pagings = append(s.pagings, PagingEvent{At: at, CellID: cellID, TMSI: rec.TMSI})
		}
	}
}

// corrupt flips a couple of random bits in a copy of the payload. A
// zero-length payload has no bits to flip and passes through unchanged
// (it will fail DCI parsing regardless); the guard keeps the rng.IntN
// draws off the empty case, which would panic.
func (s *Sniffer) corrupt(payload []byte) []byte {
	if len(payload) == 0 {
		return payload
	}
	out := make([]byte, len(payload))
	copy(out, payload)
	for flips := 1 + s.rng.IntN(2); flips > 0; flips-- {
		out[s.rng.IntN(len(out))] ^= 1 << s.rng.IntN(8)
	}
	return out
}

// count returns how many captured records carry r, 0 if none.
func (s *Sniffer) count(r rnti.RNTI) int { return int(s.counts[r]) }

// Records returns everything captured so far, time-ordered.
func (s *Sniffer) Records() trace.Trace { return s.records }

// AppendValidated appends to dst the captured records whose RNTI appears
// in at least minCount records — the plausibility filter that removes ghost
// RNTIs produced by corrupted decodes — and returns it. It is the
// whole-capture form of the DrainValidated + FlushRejected sequence. Each
// call re-derives the reject count from scratch and publishes it through
// setPlausibilityRejects, so validating twice reports the current truth
// instead of double-counting.
func (s *Sniffer) AppendValidated(dst trace.Trace, minCount int) trace.Trace {
	var rejects int64
	for _, r := range s.records {
		if s.count(r.RNTI) >= minCount {
			dst = append(dst, r)
		} else {
			rejects++
		}
	}
	s.setPlausibilityRejects(rejects)
	return dst
}

// setPlausibilityRejects moves Stats.PlausibilityRejects to n and applies
// the same delta to the obs counter, keeping the two views agreeing. The
// metric stays a monotone-named counter for report aggregation, but the
// value tracks the latest validation pass: it can step down when records
// pending validation later clear the threshold.
func (s *Sniffer) setPlausibilityRejects(n int64) {
	if d := n - s.stats.PlausibilityRejects; d != 0 {
		s.stats.PlausibilityRejects = n
		s.m.plausibilityRejects.Add(d)
	}
}

// DrainValidated is the streaming counterpart of AppendValidated: it
// appends to dst every record captured since the previous drain whose RNTI
// already passes the plausibility threshold, and holds the rest back.
// A held-back record is released by the drain that first sees its RNTI
// reach minCount sightings (immediately before that RNTI's newest record,
// preserving per-RNTI time order); records of RNTIs that never validate
// surface only through FlushRejected. Use either AppendValidated or the
// drain sequence on one sniffer, not both: draining consumes records.
// dst grows once up front by every undrained record, so a drain of a whole
// capture into an empty dst allocates its result once.
func (s *Sniffer) DrainValidated(dst trace.Trace, minCount int) trace.Trace {
	dst = slices.Grow(dst, len(s.records)-s.drained)
	if s.pending == nil {
		s.pending = make(map[rnti.RNTI][]int32)
	}
	for ; s.drained < len(s.records); s.drained++ {
		r := s.records[s.drained]
		if s.count(r.RNTI) < minCount {
			s.pending[r.RNTI] = append(s.pending[r.RNTI], int32(s.drained))
			continue
		}
		if held, ok := s.pending[r.RNTI]; ok {
			for _, idx := range held {
				dst = append(dst, s.records[idx])
			}
			delete(s.pending, r.RNTI)
		}
		dst = append(dst, r)
	}
	return dst
}

// FlushRejected closes a drain sequence: after a final DrainValidated has
// consumed every record, the still-pending records belong to RNTIs that
// never cleared the threshold. It publishes their count as the
// plausibility-reject total (Stats and obs agreeing, as with
// AppendValidated), clears the pending state, and returns the count.
func (s *Sniffer) FlushRejected() int64 {
	var rejects int64
	for _, held := range s.pending {
		rejects += int64(len(held))
	}
	s.setPlausibilityRejects(rejects)
	s.pending = nil
	return rejects
}

// IdentityEvents returns the observed RNTI↔TMSI bindings.
func (s *Sniffer) IdentityEvents() []IdentityEvent { return s.ids }

// PagingEvents returns the observed paging records.
func (s *Sniffer) PagingEvents() []PagingEvent { return s.pagings }

// Stats reports the capture-health counters accumulated so far.
func (s *Sniffer) Stats() Stats { return s.stats }
