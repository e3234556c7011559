package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"io"
	"math"
	"time"
)

// Hasher builds a content Key from deterministic primitives. Every value
// is written fixed-width or length-prefixed, so distinct provenance can
// never collide by concatenation ambiguity. The namespace string seeds the
// hash and doubles as the key-schema version: bump it whenever the set or
// order of hashed fields changes, so stale disk entries become unreachable
// rather than wrongly served.
//
// Fixed-width values collect in a small buffer that reaches the digest in
// one Write when it fills, before a string or byte payload, and at Key.
// SHA-256 is a stream, so batching the writes cannot change a key; it only
// saves the per-call cost of hashing a training matrix one float at a
// time.
type Hasher struct {
	h   hash.Hash
	n   int
	buf [512]byte
}

// NewHasher starts a key over the given namespace.
func NewHasher(namespace string) *Hasher {
	h := &Hasher{h: sha256.New()}
	_, _ = io.WriteString(h.h, namespace)
	_, _ = h.h.Write([]byte{'\n'})
	return h
}

// flush hands the buffered words to the digest.
func (h *Hasher) flush() {
	_, _ = h.h.Write(h.buf[:h.n])
	h.n = 0
}

// U64 hashes a fixed-width unsigned integer.
func (h *Hasher) U64(v uint64) {
	if h.n+8 > len(h.buf) {
		h.flush()
	}
	binary.LittleEndian.PutUint64(h.buf[h.n:], v)
	h.n += 8
}

// I64 hashes a fixed-width signed integer.
func (h *Hasher) I64(v int64) { h.U64(uint64(v)) }

// F64 hashes a float64 bit pattern.
func (h *Hasher) F64(v float64) { h.U64(math.Float64bits(v)) }

// Bool hashes a boolean as one full word.
func (h *Hasher) Bool(v bool) {
	if v {
		h.U64(1)
	} else {
		h.U64(0)
	}
}

// Duration hashes a time.Duration.
func (h *Hasher) Duration(d time.Duration) { h.I64(int64(d)) }

// Str hashes a length-prefixed string.
func (h *Hasher) Str(s string) {
	h.U64(uint64(len(s)))
	h.flush()
	_, _ = io.WriteString(h.h, s)
}

// Bytes hashes a length-prefixed byte slice.
func (h *Hasher) Bytes(b []byte) {
	h.U64(uint64(len(b)))
	h.flush()
	_, _ = h.h.Write(b)
}

// Key finalises the content address.
func (h *Hasher) Key() Key {
	h.flush()
	var k Key
	h.h.Sum(k[:0])
	return k
}
