package identity_test

import (
	"testing"
	"time"

	"ltefp/internal/identity"
	"ltefp/internal/lte/dci"
	"ltefp/internal/lte/rnti"
	"ltefp/internal/sniffer"
	"ltefp/internal/trace"
)

func event(at time.Duration, cell int, r rnti.RNTI, tmsi uint32) sniffer.IdentityEvent {
	return sniffer.IdentityEvent{At: at, CellID: cell, RNTI: r, TMSI: tmsi, HasTMSI: true}
}

func rec(at time.Duration, cell int, r rnti.RNTI, bytes int) trace.Record {
	return trace.Record{At: at, CellID: cell, RNTI: r, Dir: dci.Downlink, Bytes: bytes}
}

func TestSingleBinding(t *testing.T) {
	events := []sniffer.IdentityEvent{event(time.Second, 1, 0x100, 0xAAAA)}
	records := trace.Trace{
		rec(2*time.Second, 1, 0x100, 100),
		rec(3*time.Second, 1, 0x100, 200),
		rec(3*time.Second, 1, 0x200, 999), // someone else
	}
	m := identity.Build(events, records, 10*time.Second)
	got := m.UserTrace(records, 0xAAAA)
	if len(got) != 2 {
		t.Fatalf("user trace has %d records, want 2", len(got))
	}
	if got.TotalBytes() != 300 {
		t.Fatalf("user bytes = %d", got.TotalBytes())
	}
	if tmsis := m.TMSIs(); len(tmsis) != 1 || tmsis[0] != 0xAAAA {
		t.Fatalf("TMSIs = %v", tmsis)
	}
}

func TestRNTIReuseClosedByNextEvent(t *testing.T) {
	// RNTI 0x100 belongs to Alice, goes idle, and is later reassigned to
	// Bob. Records in each era must map to the right user.
	events := []sniffer.IdentityEvent{
		event(1*time.Second, 1, 0x100, 0xA11CE),
		event(60*time.Second, 1, 0x100, 0xB0B),
	}
	records := trace.Trace{
		rec(2*time.Second, 1, 0x100, 111),
		rec(61*time.Second, 1, 0x100, 222),
	}
	m := identity.Build(events, records, 10*time.Second)
	alice := m.UserTrace(records, 0xA11CE)
	bob := m.UserTrace(records, 0xB0B)
	if len(alice) != 1 || alice[0].Bytes != 111 {
		t.Fatalf("alice trace = %+v", alice)
	}
	if len(bob) != 1 || bob[0].Bytes != 222 {
		t.Fatalf("bob trace = %+v", bob)
	}
}

func TestIdleGapClosesInterval(t *testing.T) {
	// Alice's binding goes silent; a record long after the idle gap (from
	// an unobserved reassignment) must not be attributed to her.
	events := []sniffer.IdentityEvent{event(1*time.Second, 1, 0x100, 0xA11CE)}
	records := trace.Trace{
		rec(2*time.Second, 1, 0x100, 111),
		rec(200*time.Second, 1, 0x100, 999),
	}
	m := identity.Build(events, records, 10*time.Second)
	alice := m.UserTrace(records, 0xA11CE)
	if len(alice) != 1 || alice[0].Bytes != 111 {
		t.Fatalf("alice trace = %+v; the idle gap should have closed her interval", alice)
	}
}

func TestRandomIdentityOpensNothing(t *testing.T) {
	events := []sniffer.IdentityEvent{
		event(1*time.Second, 1, 0x100, 0xA11CE),
		{At: 30 * time.Second, CellID: 1, RNTI: 0x100, HasTMSI: false},
	}
	records := trace.Trace{
		rec(2*time.Second, 1, 0x100, 111),
		rec(31*time.Second, 1, 0x100, 999), // belongs to the anonymous user
	}
	m := identity.Build(events, records, 60*time.Second)
	alice := m.UserTrace(records, 0xA11CE)
	if len(alice) != 1 {
		t.Fatalf("alice trace = %+v; the random-identity rebind should close hers", alice)
	}
	if ivs := m.Intervals(); len(ivs) != 1 {
		t.Fatalf("%d intervals, want 1 (random identity opens none)", len(ivs))
	}
}

// crossCellFixture is one TMSI bound in two cells (the victim moved),
// with the same RNTI in use by someone else in the first cell.
func crossCellFixture() ([]sniffer.IdentityEvent, trace.Trace) {
	events := []sniffer.IdentityEvent{
		event(1*time.Second, 1, 0x100, 0xCAFE),
		event(100*time.Second, 2, 0x377, 0xCAFE),
	}
	records := trace.Trace{
		rec(2*time.Second, 1, 0x100, 10),
		rec(101*time.Second, 2, 0x377, 20),
		rec(101*time.Second, 1, 0x377, 31337), // same RNTI, other cell: not ours
	}
	return events, records
}

func TestCrossCellTracking(t *testing.T) {
	// The same TMSI appearing in two cells (the victim moved) yields one
	// user trace spanning both — the basis of the history attack.
	events, records := crossCellFixture()
	m := identity.Build(events, records, 10*time.Second)
	got := m.UserTrace(records, 0xCAFE)
	if len(got) != 2 || got.TotalBytes() != 30 {
		t.Fatalf("cross-cell trace = %+v", got)
	}
}

// multiTMSIFixture is one user holding two TMSIs, before and after a GUTI
// reallocation, each on its own RNTI.
func multiTMSIFixture() ([]sniffer.IdentityEvent, trace.Trace) {
	events := []sniffer.IdentityEvent{
		event(1*time.Second, 1, 0x100, 0xAAA1),
		event(50*time.Second, 1, 0x200, 0xAAA2),
	}
	records := trace.Trace{
		rec(2*time.Second, 1, 0x100, 1),
		rec(51*time.Second, 1, 0x200, 2),
	}
	return events, records
}

func TestMultipleTMSIsOneUser(t *testing.T) {
	// After a GUTI reallocation the user holds a new TMSI; querying with
	// both (IMSI-catcher assistance) merges the eras.
	events, records := multiTMSIFixture()
	m := identity.Build(events, records, 10*time.Second)
	got := m.UserTrace(records, 0xAAA1, 0xAAA2)
	if len(got) != 2 {
		t.Fatalf("merged trace has %d records", len(got))
	}
	if len(m.IntervalsFor(0xAAA1)) != 1 || len(m.IntervalsFor(0xAAA2)) != 1 {
		t.Fatal("per-TMSI intervals wrong")
	}
}
