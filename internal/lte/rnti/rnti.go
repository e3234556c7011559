// Package rnti models the Radio Network Temporary Identifier space of LTE
// (3GPP TS 36.321 §7.1). RNTIs are the 16-bit addresses that the eNodeB uses
// on the PDCCH to direct control information to connected UEs; they are the
// only per-user identifier visible in plaintext on the radio layer, and
// tracking their lifecycle is the first step of every attack in the paper.
package rnti

import (
	"errors"
	"fmt"
)

// RNTI is a 16-bit radio network temporary identifier.
type RNTI uint16

// Well-known RNTI values and ranges (TS 36.321 Table 7.1-1).
const (
	// PRNTI addresses paging messages.
	PRNTI RNTI = 0xFFFE
	// SIRNTI addresses system information broadcasts.
	SIRNTI RNTI = 0xFFFF
	// RAMin and RAMax bound the RA-RNTI range used to address random
	// access responses.
	RAMin RNTI = 0x0001
	RAMax RNTI = 0x003C
	// CMin and CMax bound the C-RNTI range allocatable to connected UEs.
	CMin RNTI = 0x003D
	CMax RNTI = 0xFFF3
)

// IsC reports whether r lies in the C-RNTI (connected-UE) range.
func (r RNTI) IsC() bool { return r >= CMin && r <= CMax }

// IsRA reports whether r lies in the RA-RNTI range.
func (r RNTI) IsRA() bool { return r >= RAMin && r <= RAMax }

// String formats the RNTI the way LTE analyzers conventionally do.
func (r RNTI) String() string {
	switch {
	case r == PRNTI:
		return "P-RNTI"
	case r == SIRNTI:
		return "SI-RNTI"
	case r.IsRA():
		return fmt.Sprintf("RA-RNTI(0x%04x)", uint16(r))
	case r.IsC():
		return fmt.Sprintf("C-RNTI(0x%04x)", uint16(r))
	default:
		return fmt.Sprintf("RNTI(0x%04x)", uint16(r))
	}
}

// ErrExhausted is returned by Allocator.Allocate when every C-RNTI is in use.
var ErrExhausted = errors.New("rnti: C-RNTI space exhausted")

// Allocator hands out C-RNTIs the way an eNodeB does: values are unique
// among currently connected UEs, and released values return to the pool but
// are not immediately reused, so a sniffer observing a fresh RNTI can assume
// it belongs to a newly (re)connected UE rather than a stale one.
//
// Allocator is not safe for concurrent use; each simulated cell owns one.
type Allocator struct {
	rng    randSource
	inUse  map[RNTI]struct{}
	cool   []RNTI // released, awaiting cooldown before reuse
	minAge int    // releases that must happen before a cooled RNTI is reusable
}

// randSource is the subset of sim.RNG the allocator needs; declaring it
// locally keeps the dependency direction clean.
type randSource interface {
	UniformInt(lo, hi int) int
}

// NewAllocator returns an allocator drawing fresh values from rng.
func NewAllocator(rng randSource) *Allocator {
	return &Allocator{
		rng:    rng,
		inUse:  make(map[RNTI]struct{}),
		minAge: 64,
	}
}

// Allocate returns an unused C-RNTI.
func (a *Allocator) Allocate() (RNTI, error) {
	span := int(CMax - CMin)
	for attempt := 0; attempt < 4*span; attempt++ {
		r := RNTI(a.rng.UniformInt(int(CMin), int(CMax)))
		if _, used := a.inUse[r]; used {
			continue
		}
		if a.cooling(r) {
			continue
		}
		a.inUse[r] = struct{}{}
		return r, nil
	}
	return 0, ErrExhausted
}

// Release returns r to the pool after a cooldown. Releasing an RNTI that is
// not allocated is a no-op.
func (a *Allocator) Release(r RNTI) {
	if _, ok := a.inUse[r]; !ok {
		return
	}
	delete(a.inUse, r)
	a.cool = append(a.cool, r)
	if len(a.cool) > a.minAge {
		a.cool = a.cool[len(a.cool)-a.minAge:]
	}
}

func (a *Allocator) cooling(r RNTI) bool {
	for _, c := range a.cool {
		if c == r {
			return true
		}
	}
	return false
}
