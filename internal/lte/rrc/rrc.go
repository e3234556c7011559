// Package rrc models the Radio Resource Control connection procedure
// messages (3GPP TS 36.331) that are exchanged *before* access-stratum
// security is activated and are therefore readable by a passive observer.
// The contention-resolution echo in ConnectionSetup is the hinge of the
// paper's identity-mapping step ①: it repeats, in plaintext, the identity
// the UE presented in its ConnectionRequest, letting a sniffer bind the
// freshly assigned C-RNTI to a stable TMSI (Rupprecht et al., "Breaking LTE
// on Layer Two").
package rrc

import (
	"fmt"

	"ltefp/internal/lte/rnti"
)

// EstablishmentCause is the reason a UE opens an RRC connection.
type EstablishmentCause int

// Establishment causes relevant to the simulation.
const (
	// CauseMOData is mobile-originated data: the UE has uplink traffic.
	CauseMOData EstablishmentCause = iota + 1
	// CauseMTAccess is mobile-terminated access: the UE answers a page.
	CauseMTAccess
	// CauseMOSignalling covers tracking-area updates and similar.
	CauseMOSignalling
)

// String names the cause.
func (c EstablishmentCause) String() string {
	switch c {
	case CauseMOData:
		return "mo-Data"
	case CauseMTAccess:
		return "mt-Access"
	case CauseMOSignalling:
		return "mo-Signalling"
	default:
		return fmt.Sprintf("EstablishmentCause(%d)", int(c))
	}
}

// UEIdentity is the identity a UE presents during connection establishment:
// its S-TMSI when it has one, otherwise a 40-bit random value.
type UEIdentity struct {
	// TMSI holds the S-TMSI when HasTMSI is true.
	TMSI uint32
	// HasTMSI distinguishes an S-TMSI identity from a random value.
	HasTMSI bool
	// Random is a 40-bit random value used when no valid S-TMSI exists.
	Random uint64
}

// String formats the identity.
func (id UEIdentity) String() string {
	if id.HasTMSI {
		return fmt.Sprintf("s-TMSI(0x%08x)", id.TMSI)
	}
	return fmt.Sprintf("randomValue(0x%010x)", id.Random&0xFFFFFFFFFF)
}

// ConnectionRequest is msg3 of the random-access procedure: sent on the
// uplink grant given by the RAR, in plaintext.
type ConnectionRequest struct {
	Identity UEIdentity
	Cause    EstablishmentCause
}

// ConnectionSetup is msg4: it assigns the dedicated configuration and —
// critically for the attacker — echoes the msg3 identity as the MAC
// contention resolution identity, in plaintext.
type ConnectionSetup struct {
	ContentionResolution UEIdentity
}

// RandomAccessResponse is msg2, addressed to the RA-RNTI: it answers a
// preamble with a temporary C-RNTI and an uplink grant for msg3.
type RandomAccessResponse struct {
	PreambleID int
	TempCRNTI  rnti.RNTI
}

// PagingRecord announces pending downlink traffic for an idle UE,
// identified by S-TMSI, on the paging channel in plaintext.
type PagingRecord struct {
	TMSI uint32
}

// Paging is the paging message body: one or more records.
type Paging struct {
	Records []PagingRecord
}

// SecurityModeCommand activates access-stratum security. Every subsequent
// dedicated message is encrypted; the simulator stops attaching plaintext
// from this point on, exactly as a real sniffer stops being able to read it.
type SecurityModeCommand struct{}
