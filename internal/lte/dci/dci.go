// Package dci implements Downlink Control Information messages, the
// plaintext scheduling commands an eNodeB broadcasts on the PDCCH
// (3GPP TS 36.212 §5.3.3). Every uplink grant and downlink assignment for
// every connected UE is announced in one of these messages, addressed by
// CRC-masking with the UE's RNTI and never encrypted — which is precisely
// the side channel the paper's attacks consume.
//
// Two formats are modelled, the pair that carries essentially all user
// traffic scheduling: format 0 (uplink grants on PUSCH) and format 1A
// (downlink assignments on PDSCH). As on the real air interface the two
// formats have identical payload sizes and are distinguished by a leading
// flag bit, so a blind decoder learns the traffic direction from the
// payload itself.
package dci

import (
	"fmt"

	"ltefp/internal/lte/tbs"
)

// Direction is the transfer direction a DCI message schedules.
type Direction int

// Traffic directions. The paper's feature set encodes downlink as 1 and
// uplink as 0; Value reflects that convention for feature extraction.
const (
	Downlink Direction = iota + 1
	Uplink
)

// String names the direction.
func (d Direction) String() string {
	switch d {
	case Downlink:
		return "downlink"
	case Uplink:
		return "uplink"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Value returns the paper's numeric encoding: downlink 1, uplink 0.
func (d Direction) Value() int {
	if d == Downlink {
		return 1
	}
	return 0
}

// Format identifies a DCI format.
type Format int

// Supported DCI formats.
const (
	// Format0 is an uplink grant (PUSCH).
	Format0 Format = iota + 1
	// Format1A is a compact downlink assignment (PDSCH).
	Format1A
)

// String names the format as analyzers print it.
func (f Format) String() string {
	switch f {
	case Format0:
		return "DCI0"
	case Format1A:
		return "DCI1A"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// Direction returns the transfer direction the format schedules.
func (f Format) Direction() Direction {
	if f == Format0 {
		return Uplink
	}
	return Downlink
}

// bandwidthPRB is the resource-allocation bandwidth the RIV coding assumes.
// We model a 20 MHz carrier throughout.
const bandwidthPRB = tbs.MaxPRB

// PayloadLen is the packed payload size in bytes. Both formats pack to the
// same length (as in real LTE, where format 0 is padded to format 1A's
// size) so that length leaks nothing about direction.
const PayloadLen = 4

// Message is a decoded DCI payload.
type Message struct {
	Format  Format
	RBStart int  // first allocated resource block
	NPRB    int  // number of contiguous resource blocks
	MCS     int  // modulation and coding scheme index, 0..28
	HARQ    int  // HARQ process number, 0..7
	NDI     bool // new data indicator
	RV      int  // redundancy version, 0..3
	TPC     int  // transmit power control command, 0..3
}

// Validate checks field ranges.
func (m *Message) Validate() error {
	switch {
	case m.Format != Format0 && m.Format != Format1A:
		return fmt.Errorf("dci: unknown format %d", int(m.Format))
	case m.NPRB < 1 || m.RBStart < 0 || m.RBStart+m.NPRB > bandwidthPRB:
		return fmt.Errorf("dci: allocation [%d, %d) outside carrier of %d PRB",
			m.RBStart, m.RBStart+m.NPRB, bandwidthPRB)
	case m.MCS < 0 || m.MCS > tbs.MaxMCS:
		return fmt.Errorf("dci: MCS %d out of range", m.MCS)
	case m.HARQ < 0 || m.HARQ > 7:
		return fmt.Errorf("dci: HARQ process %d out of range", m.HARQ)
	case m.RV < 0 || m.RV > 3:
		return fmt.Errorf("dci: RV %d out of range", m.RV)
	case m.TPC < 0 || m.TPC > 3:
		return fmt.Errorf("dci: TPC %d out of range", m.TPC)
	}
	return nil
}

// TransportBlockBytes returns the transport block size, in bytes, that this
// message schedules. This is the "frame size" feature of the paper.
func (m *Message) TransportBlockBytes() (int, error) {
	itbs, _, err := tbs.ForMCS(m.MCS)
	if err != nil {
		return 0, fmt.Errorf("dci: %w", err)
	}
	b, err := tbs.Bytes(itbs, m.NPRB)
	if err != nil {
		return 0, fmt.Errorf("dci: %w", err)
	}
	return b, nil
}

// riv encodes the resource allocation as a Resource Indication Value
// (TS 36.213 §7.1.6.3).
func riv(rbStart, nprb int) uint32 {
	n := uint32(bandwidthPRB)
	l := uint32(nprb)
	s := uint32(rbStart)
	if l-1 <= n/2 {
		return n*(l-1) + s
	}
	return n*(n-l+1) + (n - 1 - s)
}

// unriv inverts riv.
func unriv(v uint32) (rbStart, nprb int, err error) {
	n := uint32(bandwidthPRB)
	if v >= n*(n+1)/2 {
		return 0, 0, fmt.Errorf("dci: RIV %d out of range", v)
	}
	l := v/n + 1
	s := v % n
	if s+l > n { // wrapped branch of the coding
		l = n - l + 2
		s = n - 1 - s
	}
	return int(s), int(l), nil
}

// PackInto serialises the message into out, which must be exactly
// PayloadLen bytes, so schedulers can pack into a reused payload arena.
//
// Bit layout (MSB first):
//
//	flag(1) | RIV(13) | MCS(5) | HARQ(3) | NDI(1) | RV(2) | TPC(2) | pad(5)
//
// flag=0 selects format 0, flag=1 selects format 1A, mirroring the real
// format 0/1A differentiation bit.
func (m *Message) PackInto(out []byte) error {
	if len(out) != PayloadLen {
		return fmt.Errorf("dci: pack buffer length %d, want %d", len(out), PayloadLen)
	}
	if err := m.Validate(); err != nil {
		return err
	}
	var bits uint32
	if m.Format == Format1A {
		bits = 1
	}
	bits = bits<<13 | riv(m.RBStart, m.NPRB)&0x1FFF
	bits = bits<<5 | uint32(m.MCS)&0x1F
	bits = bits<<3 | uint32(m.HARQ)&0x7
	if m.NDI {
		bits = bits<<1 | 1
	} else {
		bits <<= 1
	}
	bits = bits<<2 | uint32(m.RV)&0x3
	bits = bits<<2 | uint32(m.TPC)&0x3
	bits <<= 5 // padding to 32 bits
	out[0] = byte(bits >> 24)
	out[1] = byte(bits >> 16)
	out[2] = byte(bits >> 8)
	out[3] = byte(bits)
	return nil
}

// Parse deserialises a payload produced by PackInto.
func Parse(payload []byte) (Message, error) {
	if len(payload) != PayloadLen {
		return Message{}, fmt.Errorf("dci: payload length %d, want %d", len(payload), PayloadLen)
	}
	bits := uint32(payload[0])<<24 | uint32(payload[1])<<16 |
		uint32(payload[2])<<8 | uint32(payload[3])
	if bits&0x1F != 0 {
		return Message{}, fmt.Errorf("dci: nonzero padding bits")
	}
	bits >>= 5
	var m Message
	m.TPC = int(bits & 0x3)
	bits >>= 2
	m.RV = int(bits & 0x3)
	bits >>= 2
	m.NDI = bits&1 == 1
	bits >>= 1
	m.HARQ = int(bits & 0x7)
	bits >>= 3
	m.MCS = int(bits & 0x1F)
	bits >>= 5
	rbStart, nprb, err := unriv(bits & 0x1FFF)
	if err != nil {
		return Message{}, err
	}
	m.RBStart, m.NPRB = rbStart, nprb
	bits >>= 13
	if bits&1 == 1 {
		m.Format = Format1A
	} else {
		m.Format = Format0
	}
	if err := m.Validate(); err != nil {
		return Message{}, err
	}
	return m, nil
}
