package crc

// Verify reports whether the masked parity bits are consistent with the
// payload under the given RNTI.
func Verify(payload []byte, maskedParity, rnti uint16) bool {
	return Attach(payload, rnti) == maskedParity
}
