package sniffer_test

import (
	"testing"

	"ltefp/internal/lte/crc"
	"ltefp/internal/lte/dci"
	"ltefp/internal/lte/phy"
	"ltefp/internal/sim"
	"ltefp/internal/sniffer"
)

// FuzzBlindDecode exercises the sniffer's blind-decoding step with
// arbitrary payloads, RNTIs, and bit corruptions:
//
//   - CRC16 unmasking must be exact: RecoverRNTI inverts Attach for every
//     payload/RNTI pair, and an intact payload always verifies.
//   - Nothing panics — not dci.Parse on garbage candidates, and not a live
//     Sniffer observing a subframe built from fuzzer bytes.
//   - A 1–2-bit corrupted payload is never accepted as a valid message for
//     the original RNTI: gCRC16 detects all 1- and 2-bit errors within its
//     period, which is the guarantee the plausibility filter builds on.
func FuzzBlindDecode(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x00}, uint16(0x003D), uint16(0), uint16(9))
	f.Add([]byte{0x20, 0x01, 0x18, 0x40}, uint16(0xFFFF), uint16(31), uint16(31))
	f.Add([]byte{0xAB}, uint16(1), uint16(3), uint16(3))
	f.Add([]byte{}, uint16(0), uint16(0), uint16(0))
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x42}, uint16(0x4242), uint16(17), uint16(38))
	f.Fuzz(func(t *testing.T, payload []byte, rnti, flipA, flipB uint16) {
		masked := crc.Attach(payload, rnti)
		if got := crc.RecoverRNTI(payload, masked); got != rnti {
			t.Fatalf("unmask recovered %#04x, want %#04x", got, rnti)
		}
		if crc.Attach(payload, rnti) != masked {
			t.Fatal("CRC check rejects an intact payload")
		}
		// A blind decoder sees every candidate; neither the parser nor a
		// live sniffer may panic on one. The CorruptProb=1 sniffer forces
		// every candidate through the bit-flip path, which used to panic on
		// zero-length payloads.
		_, _ = dci.Parse(payload)
		sf := &phy.Subframe{PDCCH: []phy.Transmission{{Payload: payload, MaskedCRC: masked}}}
		sniffer.New(sniffer.Config{}, sim.NewRNG(1)).Observe(1, sf)
		sniffer.New(sniffer.Config{CorruptProb: 1}, sim.NewRNG(2)).Observe(1, sf)

		if len(payload) == 0 || len(payload) > 256 {
			// gCRC16's 2-bit-error guarantee holds within the polynomial's
			// period (32767 bits). Real DCI payloads are 4 bytes; capping
			// the corruption check at 256 keeps the property sound.
			return
		}
		corrupt := append([]byte(nil), payload...)
		bitLen := uint(len(corrupt)) * 8
		a := uint(flipA) % bitLen
		b := uint(flipB) % bitLen
		corrupt[a/8] ^= 1 << (a % 8)
		if b != a {
			corrupt[b/8] ^= 1 << (b % 8)
		}
		if crc.Attach(corrupt, rnti) == masked {
			t.Fatalf("corrupted payload % x passes CRC for RNTI %#04x", corrupt, rnti)
		}
		if crc.RecoverRNTI(corrupt, masked) == rnti {
			t.Fatalf("corrupted payload % x still unmasks to RNTI %#04x", corrupt, rnti)
		}
	})
}
