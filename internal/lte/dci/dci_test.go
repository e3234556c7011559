package dci_test

import (
	"testing"
	"testing/quick"

	"ltefp/internal/lte/dci"
	"ltefp/internal/lte/tbs"
)

func validMessage(f dci.Format, rbStart, nprb, mcs, harq, rv, tpc uint8, ndi bool) dci.Message {
	m := dci.Message{
		Format: f,
		MCS:    int(mcs) % (tbs.MaxMCS + 1),
		HARQ:   int(harq) % 8,
		NDI:    ndi,
		RV:     int(rv) % 4,
		TPC:    int(tpc) % 4,
	}
	m.NPRB = 1 + int(nprb)%tbs.MaxPRB
	m.RBStart = int(rbStart) % (tbs.MaxPRB - m.NPRB + 1)
	return m
}

// TestRoundTrip: Pack followed by Parse is the identity on every valid
// message — the property the whole sniffer decode path rests on.
func TestRoundTrip(t *testing.T) {
	f := func(isUL bool, rbStart, nprb, mcs, harq, rv, tpc uint8, ndi bool) bool {
		format := dci.Format1A
		if isUL {
			format = dci.Format0
		}
		m := validMessage(format, rbStart, nprb, mcs, harq, rv, tpc, ndi)
		payload := make([]byte, dci.PayloadLen)
		if err := m.PackInto(payload); err != nil {
			return false
		}
		got, err := dci.Parse(payload)
		if err != nil {
			return false
		}
		return got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFormatDirection(t *testing.T) {
	if dci.Format0.Direction() != dci.Uplink {
		t.Error("format 0 should schedule uplink")
	}
	if dci.Format1A.Direction() != dci.Downlink {
		t.Error("format 1A should schedule downlink")
	}
	if dci.Downlink.Value() != 1 || dci.Uplink.Value() != 0 {
		t.Error("paper encoding: downlink = 1, uplink = 0")
	}
}

func TestValidate(t *testing.T) {
	bad := []dci.Message{
		{Format: 0, NPRB: 1, MCS: 0},                          // no format
		{Format: dci.Format0, RBStart: 0, NPRB: 0, MCS: 0},    // empty allocation
		{Format: dci.Format0, RBStart: 100, NPRB: 20, MCS: 0}, // allocation overflow
		{Format: dci.Format0, NPRB: 1, MCS: 29},               // MCS range
		{Format: dci.Format0, NPRB: 1, MCS: 0, HARQ: 8},       // HARQ range
		{Format: dci.Format0, NPRB: 1, MCS: 0, RV: 4},         // RV range
		{Format: dci.Format0, NPRB: 1, MCS: 0, TPC: 5},        // TPC range
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, m)
		}
		if err := m.PackInto(make([]byte, dci.PayloadLen)); err == nil {
			t.Errorf("case %d: PackInto accepted %+v", i, m)
		}
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := dci.Parse([]byte{1, 2, 3}); err == nil {
		t.Error("Parse accepted a short payload")
	}
	if _, err := dci.Parse([]byte{0, 0, 0, 0x1F}); err == nil {
		t.Error("Parse accepted nonzero padding bits")
	}
}

func TestTransportBlockBytes(t *testing.T) {
	m := dci.Message{Format: dci.Format1A, RBStart: 0, NPRB: 10, MCS: 10}
	got, err := m.TransportBlockBytes()
	if err != nil {
		t.Fatal(err)
	}
	itbs, _, err := tbs.ForMCS(10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tbs.Bytes(itbs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("TransportBlockBytes = %d, want %d", got, want)
	}
}

// TestFullSpanAllocation: the RIV coding's wrapped branch (large
// allocations) must round-trip too.
func TestFullSpanAllocation(t *testing.T) {
	m := dci.Message{Format: dci.Format1A, RBStart: 0, NPRB: tbs.MaxPRB, MCS: 28}
	payload := make([]byte, dci.PayloadLen)
	if err := m.PackInto(payload); err != nil {
		t.Fatal(err)
	}
	got, err := dci.Parse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("full-span round trip = %+v, want %+v", got, m)
	}
}
