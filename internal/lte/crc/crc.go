// Package crc implements the 16-bit cyclic redundancy check that LTE
// attaches to DCI payloads on the PDCCH (3GPP TS 36.212 §5.1.1, gCRC16,
// generator polynomial D^16 + D^12 + D^5 + 1, i.e. CRC-16/CCITT with zero
// initial state), together with the RNTI masking rule of §5.3.3.2: the
// 16 CRC parity bits are XOR-ed with the RNTI before transmission.
//
// The masking rule is the entire basis of passive PDCCH sniffing: a decoder
// that re-computes the CRC over a candidate payload and XORs it with the
// received parity bits recovers the RNTI the message was addressed to. Tools
// such as OWL and FALCON — and the sniffer in this repository — exploit
// exactly this property.
package crc

// Poly is the gCRC16 generator polynomial, D^16 + D^12 + D^5 + 1, in the
// conventional MSB-first representation (the leading D^16 term is implicit).
const Poly uint16 = 0x1021

var table = makeTable()

func makeTable() *[256]uint16 {
	var t [256]uint16
	for i := 0; i < 256; i++ {
		c := uint16(i) << 8
		for j := 0; j < 8; j++ {
			if c&0x8000 != 0 {
				c = c<<1 ^ Poly
			} else {
				c <<= 1
			}
		}
		t[i] = c
	}
	return &t
}

// Checksum computes the gCRC16 parity bits over data with the all-zero
// initial register LTE prescribes.
func Checksum(data []byte) uint16 {
	var c uint16
	for _, b := range data {
		c = c<<8 ^ table[byte(c>>8)^b]
	}
	return c
}

// Mask applies RNTI masking to CRC parity bits. Masking is an involution:
// Mask(Mask(c, r), r) == c.
func Mask(parity, rnti uint16) uint16 { return parity ^ rnti }

// Attach computes the masked parity bits transmitted alongside a DCI
// payload addressed to rnti.
func Attach(payload []byte, rnti uint16) uint16 {
	return Mask(Checksum(payload), rnti)
}

// RecoverRNTI inverts Attach: given a received payload and its masked parity
// bits, it returns the RNTI the message was addressed to. This is the blind
// decoding step of a passive PDCCH sniffer. When the payload was corrupted
// in capture the returned value is garbage; callers filter implausible
// RNTIs by tracking activity over time.
func RecoverRNTI(payload []byte, maskedParity uint16) uint16 {
	return Checksum(payload) ^ maskedParity
}
