// Package epc is a minimal evolved packet core: it registers subscribers by
// IMSI, allocates and reallocates the temporary identities (TMSIs) the radio
// layer exposes, and originates paging toward idle UEs. It is deliberately
// small — the paper's attacks live below it — but its TMSI lifecycle is what
// makes identity mapping meaningful: a TMSI outlives many RNTIs, and a GUTI
// reallocation breaks an attacker's mapping until re-observed.
package epc

import (
	"errors"
	"fmt"
)

// IMSI is the permanent subscriber identity.
type IMSI string

// TMSI is the temporary subscriber identity assigned by the core network.
type TMSI uint32

// String formats the TMSI as analyzers print it.
func (t TMSI) String() string { return fmt.Sprintf("0x%08x", uint32(t)) }

// ErrUnknownSubscriber is returned for operations on unregistered IMSIs.
var ErrUnknownSubscriber = errors.New("epc: unknown subscriber")

// randSource is the randomness the core needs for TMSI allocation.
type randSource interface {
	Uint64() uint64
}

// Core tracks subscriber registrations. It is not safe for concurrent use;
// the simulation drives it from a single loop.
type Core struct {
	rng    randSource
	byIMSI map[IMSI]TMSI
	byTMSI map[TMSI]IMSI
}

// NewCore returns an empty core network drawing TMSIs from rng.
func NewCore(rng randSource) *Core {
	return &Core{
		rng:    rng,
		byIMSI: make(map[IMSI]TMSI),
		byTMSI: make(map[TMSI]IMSI),
	}
}

// Attach registers a subscriber and returns its TMSI. Attaching an
// already-registered subscriber returns the existing TMSI.
func (c *Core) Attach(imsi IMSI) TMSI {
	if t, ok := c.byIMSI[imsi]; ok {
		return t
	}
	t := c.freshTMSI()
	c.byIMSI[imsi] = t
	c.byTMSI[t] = imsi
	return t
}

// Reallocate performs a GUTI reallocation: the subscriber receives a fresh
// TMSI and the old one becomes invalid. Real networks do this periodically;
// it is the main churn an identity-mapping attacker must keep up with.
func (c *Core) Reallocate(imsi IMSI) (TMSI, error) {
	old, ok := c.byIMSI[imsi]
	if !ok {
		return 0, fmt.Errorf("reallocate %q: %w", imsi, ErrUnknownSubscriber)
	}
	delete(c.byTMSI, old)
	t := c.freshTMSI()
	c.byIMSI[imsi] = t
	c.byTMSI[t] = imsi
	return t, nil
}

// Detach removes a subscriber.
func (c *Core) Detach(imsi IMSI) {
	if t, ok := c.byIMSI[imsi]; ok {
		delete(c.byTMSI, t)
		delete(c.byIMSI, imsi)
	}
}

func (c *Core) freshTMSI() TMSI {
	for {
		t := TMSI(c.rng.Uint64())
		if t == 0 {
			continue
		}
		if _, taken := c.byTMSI[t]; !taken {
			return t
		}
	}
}
