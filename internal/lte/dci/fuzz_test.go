package dci_test

import (
	"bytes"
	"testing"

	"ltefp/internal/lte/dci"
)

// FuzzDCIRoundTrip drives Parse with arbitrary candidate bytes — the exact
// situation of a blind decoder scanning a noisy control channel. Parse must
// never panic, and any payload it accepts must validate and re-pack to the
// identical bytes (decode→encode identity), which is what makes the
// sniffer's captured messages faithful to what was on the air.
func FuzzDCIRoundTrip(f *testing.F) {
	for _, m := range []dci.Message{
		{Format: dci.Format0, RBStart: 0, NPRB: 1, MCS: 0, HARQ: 0, TPC: 0},
		{Format: dci.Format1A, RBStart: 5, NPRB: 50, MCS: 17, HARQ: 7, NDI: true, RV: 3, TPC: 2},
		{Format: dci.Format1A, RBStart: 0, NPRB: 110, MCS: 28, HARQ: 3, NDI: true, RV: 1, TPC: 1},
		{Format: dci.Format0, RBStart: 109, NPRB: 1, MCS: 9, HARQ: 5, TPC: 3},
	} {
		payload := make([]byte, dci.PayloadLen)
		if err := m.PackInto(payload); err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := dci.Parse(payload)
		if err != nil {
			return // rejected candidates only need to not panic
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("Parse accepted an invalid message %+v: %v", m, err)
		}
		if _, err := m.TransportBlockBytes(); err != nil {
			t.Fatalf("accepted message has no TBS: %v", err)
		}
		repacked := make([]byte, dci.PayloadLen)
		if err := m.PackInto(repacked); err != nil {
			t.Fatalf("accepted message does not re-pack: %v", err)
		}
		if !bytes.Equal(repacked, payload) {
			t.Fatalf("decode→encode is not the identity: % x → % x", payload, repacked)
		}
	})
}
