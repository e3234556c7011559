package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Encoder builds a section payload from deterministic primitives: every
// integer is fixed-width little-endian or uvarint, floats are IEEE-754 bit
// patterns, strings and byte slices are length-prefixed. Equal values
// always produce equal bytes — there is no map iteration, padding, or
// reflection anywhere in the layer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with the given initial capacity hint.
func NewEncoder(capHint int) *Encoder { return &Encoder{buf: make([]byte, 0, capHint)} }

// Bytes returns the accumulated payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the accumulated payload size.
func (e *Encoder) Len() int { return len(e.buf) }

// Uvarint appends a varint-encoded unsigned integer.
func (e *Encoder) Uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Varint appends a zig-zag varint-encoded signed integer.
func (e *Encoder) Varint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// U32 appends a fixed-width little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a fixed-width little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a fixed-width little-endian int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 appends the IEEE-754 bit pattern of a float64.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// F32 appends the IEEE-754 bit pattern of a float32.
func (e *Encoder) F32(v float32) { e.U32(math.Float32bits(v)) }

// Bool appends one byte, 0 or 1.
func (e *Encoder) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// Duration appends a time.Duration as a varint of nanoseconds.
func (e *Encoder) Duration(d time.Duration) { e.Varint(int64(d)) }

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (e *Encoder) Blob(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Raw appends n zero bytes and returns them for the caller to fill: a
// fixed-width array written in one piece rather than value by value. The
// slice is valid until the next append.
func (e *Encoder) Raw(n int) []byte {
	l := len(e.buf)
	e.buf = append(e.buf, make([]byte, n)...)
	return e.buf[l:]
}

// Decoder consumes a section payload written by Encoder. It is
// error-sticky: the first failure (truncation, overflow, impossible
// length) latches into Err, every later read returns zero values, and no
// input — however corrupt — can make it panic or allocate unboundedly.
// Callers check Err once at the end.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder wraps a payload.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decoding error, nil if all reads succeeded.
func (d *Decoder) Err() error { return d.err }

// Remaining returns how many bytes are left unread.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

// fail latches the first error and ends the payload, so every later read
// finds no bytes left, takes its slow path and returns zero.
func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
	d.off = len(d.b)
}

// take returns the next n bytes, or nil after latching a truncation error.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.fail("payload truncated (want %d bytes, %d left)", n, len(d.b)-d.off)
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

// Uvarint reads a varint-encoded unsigned integer. Values below 128 (most
// counts and indices) take a one-byte fast path.
func (d *Decoder) Uvarint() uint64 {
	if b := d.b[d.off:]; len(b) > 0 && b[0] < 0x80 {
		d.off++
		return uint64(b[0])
	}
	return d.uvarintSlow()
}

func (d *Decoder) uvarintSlow() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zig-zag varint-encoded signed integer, with Uvarint's
// one-byte fast path (values in [-64, 64)).
func (d *Decoder) Varint() int64 {
	if b := d.b[d.off:]; len(b) > 0 && b[0] < 0x80 {
		d.off++
		return int64(b[0]>>1) ^ -int64(b[0]&1)
	}
	return d.varintSlow()
}

func (d *Decoder) varintSlow() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// U32 reads a fixed-width little-endian uint32.
func (d *Decoder) U32() uint32 {
	if b := d.b[d.off:]; len(b) >= 4 {
		d.off += 4
		return binary.LittleEndian.Uint32(b)
	}
	d.take(4) // latches the truncation
	return 0
}

// U64 reads a fixed-width little-endian uint64.
func (d *Decoder) U64() uint64 {
	if b := d.b[d.off:]; len(b) >= 8 {
		d.off += 8
		return binary.LittleEndian.Uint64(b)
	}
	d.take(8) // latches the truncation
	return 0
}

// I64 reads a fixed-width little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads an IEEE-754 float64 bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// F32 reads an IEEE-754 float32 bit pattern.
func (d *Decoder) F32() float32 { return math.Float32frombits(d.U32()) }

// Bool reads one byte, rejecting values other than 0 and 1.
func (d *Decoder) Bool() bool {
	b := d.take(1)
	if b == nil {
		return false
	}
	if b[0] > 1 {
		d.fail("bad bool byte %d", b[0])
		return false
	}
	return b[0] == 1
}

// Duration reads a time.Duration written by Encoder.Duration.
func (d *Decoder) Duration() time.Duration { return time.Duration(d.Varint()) }

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := d.Uvarint()
	if d.err == nil && n > uint64(d.Remaining()) {
		d.fail("string length %d exceeds %d remaining bytes", n, d.Remaining())
	}
	b := d.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}

// Blob reads a length-prefixed byte slice (aliasing the payload buffer).
func (d *Decoder) Blob() []byte {
	n := d.Uvarint()
	if d.err == nil && n > uint64(d.Remaining()) {
		d.fail("blob length %d exceeds %d remaining bytes", n, d.Remaining())
	}
	return d.take(int(n))
}

// Raw reads the next n bytes, as written by Encoder.Raw, aliasing the
// payload buffer; it returns nil after a truncation error.
func (d *Decoder) Raw(n int) []byte { return d.take(n) }

// Count reads a uvarint collection length, validating it against a
// per-element minimum size so a corrupted count cannot drive an unbounded
// allocation: the elements must at least fit in the remaining bytes.
func (d *Decoder) Count(minElemBytes int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if n > uint64(d.Remaining()/minElemBytes) {
		d.fail("collection length %d exceeds remaining payload", n)
		return 0
	}
	return int(n)
}

// Finish reports an error if any read failed or unread bytes remain — a
// payload must be consumed exactly.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes in payload", ErrCorrupt, d.Remaining())
	}
	return nil
}
