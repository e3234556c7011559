// Package phy models the slice of the LTE physical layer a passive PDCCH
// observer interacts with: subframes, the control channel element (CCE)
// grid of the PDCCH, search spaces, and the candidate hashing rule of
// 3GPP TS 36.213 §9.1.1 that determines where a UE's DCI messages may be
// placed. The eNodeB writes Transmissions into Subframes; the sniffer reads
// them back and blind-decodes them. Nothing in this package is encrypted —
// as on the real air interface, the PDCCH is plaintext by design.
package phy

import (
	"fmt"

	"ltefp/internal/lte/rnti"
)

// DefaultNCCE is the number of control channel elements available per
// subframe on the modelled 20 MHz carrier with a typical CFI.
const DefaultNCCE = 42

// commonSearchSpaceCCEs is the number of CCEs (from CCE 0) that form the
// common search space, used for paging, RAR, and SI scheduling.
const commonSearchSpaceCCEs = 16

// AggregationLevels lists the valid PDCCH aggregation levels.
var AggregationLevels = []int{1, 2, 4, 8}

// Transmission is one PDCCH message together with the scheduled payload a
// sniffer can observe.
type Transmission struct {
	// Payload is the packed DCI payload.
	Payload []byte
	// MaskedCRC is the CRC16 of Payload XOR-masked with the target RNTI.
	MaskedCRC uint16
	// AggLevel is the aggregation level (1, 2, 4, or 8 CCEs).
	AggLevel int
	// FirstCCE is the index of the first CCE the message occupies.
	FirstCCE int
	// Plaintext, when non-nil, carries the content of the scheduled
	// transport block for the handful of messages sent before AS security
	// activation (random access response, RRC connection setup, paging
	// records). Those are readable by any observer on a real network; user
	// traffic after security activation is opaque and carries nil here.
	Plaintext any
}

// Preamble is a random-access attempt visible on the PRACH.
type Preamble struct {
	// ID is the preamble index the UE picked, 0..63.
	ID int
}

// Subframe is everything transmitted over the air in one 1 ms TTI that a
// physical-layer observer can capture.
type Subframe struct {
	// Index is the absolute subframe number since simulation start.
	Index int64
	// PDCCH holds the control messages of this subframe.
	PDCCH []Transmission
	// RACH holds random-access preambles received in this subframe.
	RACH []Preamble
}

// searchSpaceHash implements the Y_k recursion of TS 36.213 §9.1.1 that
// seeds UE-specific candidate locations: Y_k = (A · Y_{k-1}) mod D with
// A = 39827, D = 65537 and Y_{-1} = RNTI.
func searchSpaceHash(r rnti.RNTI, subframe int64) uint64 {
	const (
		a = 39827
		d = 65537
	)
	y := uint64(r)
	if y == 0 {
		y = 1
	}
	k := int(subframe % 10)
	for i := 0; i <= k; i++ {
		y = (a * y) % d
	}
	return y
}

// Candidates returns the first CCE index of each PDCCH candidate the given
// RNTI monitors at the given aggregation level in the given subframe.
// Common-range RNTIs (paging, SI, RA) use the common search space; C-RNTIs
// use their hashed UE-specific space.
func Candidates(r rnti.RNTI, aggLevel int, subframe int64, ncce int) ([]int, error) {
	if !validAgg(aggLevel) {
		return nil, fmt.Errorf("phy: invalid aggregation level %d", aggLevel)
	}
	if ncce < aggLevel {
		return nil, fmt.Errorf("phy: %d CCEs cannot fit aggregation level %d", ncce, aggLevel)
	}
	var numCand int
	switch aggLevel {
	case 1:
		numCand = 6
	case 2:
		numCand = 6
	case 4:
		numCand = 2
	case 8:
		numCand = 2
	}
	if !r.IsC() {
		// Common search space: aggregation levels 4 and 8 only, CCEs 0..15.
		if aggLevel < 4 {
			return nil, fmt.Errorf("phy: common search space requires aggregation level ≥ 4, got %d", aggLevel)
		}
		span := commonSearchSpaceCCEs
		if span > ncce {
			span = ncce
		}
		out := make([]int, 0, span/aggLevel)
		for c := 0; c+aggLevel <= span; c += aggLevel {
			out = append(out, c)
		}
		return out, nil
	}
	y := searchSpaceHash(r, subframe)
	slots := ncce / aggLevel
	out := make([]int, 0, numCand)
	for m := 0; m < numCand; m++ {
		c := int((y+uint64(m))%uint64(slots)) * aggLevel
		if containsInt(out, c) {
			continue
		}
		out = append(out, c)
	}
	return out, nil
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func candidateCount(aggLevel int) int {
	switch aggLevel {
	case 1, 2:
		return 6
	default:
		return 2
	}
}

func validAgg(l int) bool {
	for _, a := range AggregationLevels {
		if a == l {
			return true
		}
	}
	return false
}

// CCEMap tracks CCE occupancy while the eNodeB assembles a subframe's
// PDCCH, preventing overlapping placements exactly as a real scheduler
// must. The zero value covers no elements; Reset sizes it.
type CCEMap struct {
	used []bool
}

// Reset clears the map and resizes it to ncce elements, reusing the
// backing storage, so a scheduler keeps one map per cell instead of
// allocating one per TTI.
func (m *CCEMap) Reset(ncce int) {
	if cap(m.used) < ncce {
		m.used = make([]bool, ncce)
		return
	}
	m.used = m.used[:ncce]
	for i := range m.used {
		m.used[i] = false
	}
}

// Place finds the first free candidate for the RNTI at the aggregation
// level and marks it used. The boolean reports whether a slot was found;
// when all candidates are occupied the caller must defer the grant to a
// later subframe (PDCCH congestion). Candidate positions and order are
// exactly those of Candidates; the search runs without allocating.
func (m *CCEMap) Place(r rnti.RNTI, aggLevel int, subframe int64) (firstCCE int, ok bool) {
	ncce := len(m.used)
	if !validAgg(aggLevel) || ncce < aggLevel {
		return 0, false
	}
	if !r.IsC() {
		if aggLevel < 4 {
			return 0, false
		}
		span := commonSearchSpaceCCEs
		if span > ncce {
			span = ncce
		}
		for c := 0; c+aggLevel <= span; c += aggLevel {
			if m.free(c, aggLevel) {
				m.mark(c, aggLevel)
				return c, true
			}
		}
		return 0, false
	}
	y := searchSpaceHash(r, subframe)
	slots := uint64(ncce / aggLevel)
	// Duplicate candidates (the hash wraps within few slots) are probed
	// again instead of skipped: a repeated probe of an occupied slot fails
	// identically, so the outcome matches the deduplicated candidate list.
	for mIdx := 0; mIdx < candidateCount(aggLevel); mIdx++ {
		c := int((y+uint64(mIdx))%slots) * aggLevel
		if m.free(c, aggLevel) {
			m.mark(c, aggLevel)
			return c, true
		}
	}
	return 0, false
}

func (m *CCEMap) free(first, n int) bool {
	for i := first; i < first+n; i++ {
		if m.used[i] {
			return false
		}
	}
	return true
}

func (m *CCEMap) mark(first, n int) {
	for i := first; i < first+n; i++ {
		m.used[i] = true
	}
}
