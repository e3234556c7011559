package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// writeContainer builds a container with the given sections.
func writeContainer(t *testing.T, sections map[string][]byte, order []string) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range order {
		if err := w.Section(name, sections[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	sections := map[string][]byte{
		"meta":  []byte("hello"),
		"empty": nil,
		"bin":   {0, 1, 2, 255, 254, 0x80, 0x7f},
	}
	order := []string{"meta", "empty", "bin"}
	raw := writeContainer(t, sections, order)

	got, err := ReadAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sections) {
		t.Fatalf("got %d sections, want %d", len(got), len(sections))
	}
	for name, want := range sections {
		if !bytes.Equal(got[name], want) {
			t.Errorf("section %q = %x, want %x", name, got[name], want)
		}
	}

	// Iteration order must match write order.
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range order {
		name, _, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if name != want {
			t.Fatalf("section order: got %q, want %q", name, want)
		}
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("after last section: err = %v, want io.EOF", err)
	}
}

func TestDeterministicBytes(t *testing.T) {
	sections := map[string][]byte{"a": []byte("x"), "b": []byte("yy")}
	one := writeContainer(t, sections, []string{"a", "b"})
	two := writeContainer(t, sections, []string{"a", "b"})
	if !bytes.Equal(one, two) {
		t.Fatal("identical sections produced different container bytes")
	}
}

func TestBadMagic(t *testing.T) {
	_, err := NewReader(bytes.NewReader([]byte("GOBGOBGOBGOB")))
	if !errors.Is(err, ErrMagic) {
		t.Fatalf("err = %v, want ErrMagic", err)
	}
	// A gob stream as written by the pre-snapshot model files.
	_, err = NewReader(bytes.NewReader([]byte{0x3a, 0xff, 0x81, 0x03, 0x01, 0x01, 0x09, 0x70, 0x65, 0x72}))
	if !errors.Is(err, ErrMagic) {
		t.Fatalf("gob bytes: err = %v, want ErrMagic", err)
	}
}

func TestVersionSkew(t *testing.T) {
	raw := writeContainer(t, map[string][]byte{"a": []byte("x")}, []string{"a"})
	for _, v := range []uint16{0, 2, 999} {
		skewed := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint16(skewed[8:], v)
		_, err := NewReader(bytes.NewReader(skewed))
		if !errors.Is(err, ErrVersion) {
			t.Fatalf("version %d: err = %v, want ErrVersion", v, err)
		}
	}
}

func TestTruncationDetected(t *testing.T) {
	raw := writeContainer(t, map[string][]byte{"a": bytes.Repeat([]byte("p"), 64)}, []string{"a"})
	// Every proper prefix must fail with ErrTruncated (or ErrMagic for
	// prefixes shorter than the header) — never succeed, never corrupt.
	for n := 0; n < len(raw); n++ {
		_, err := ReadAll(bytes.NewReader(raw[:n]))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", n, len(raw))
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrMagic) {
			t.Fatalf("prefix of %d bytes: err = %v, want ErrTruncated/ErrMagic", n, err)
		}
	}
}

func TestBitFlipDetected(t *testing.T) {
	raw := writeContainer(t, map[string][]byte{
		"a": bytes.Repeat([]byte("q"), 32),
		"b": []byte("payload-b"),
	}, []string{"a", "b"})
	// Flipping any single bit anywhere in the file must be detected. (A
	// flip can also manifest as a truncation-style error when it lands in
	// a length prefix, or a magic/version error in the header.)
	for byteIdx := 0; byteIdx < len(raw); byteIdx++ {
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), raw...)
			flipped[byteIdx] ^= 1 << bit
			if _, err := ReadAll(bytes.NewReader(flipped)); err == nil {
				t.Fatalf("bit flip at byte %d bit %d went undetected", byteIdx, bit)
			}
		}
	}
}

func TestDuplicateSectionRejected(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := w.Section("dup", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestTrailingGarbageIgnoredByReadAll(t *testing.T) {
	// ReadAll validates through the end marker; bytes beyond it are not
	// the container's concern (a stream may carry more data). But the
	// marker itself must be present and intact.
	raw := writeContainer(t, map[string][]byte{"a": []byte("x")}, []string{"a"})
	extended := append(append([]byte(nil), raw...), 0xde, 0xad)
	if _, err := ReadAll(bytes.NewReader(extended)); err != nil {
		t.Fatalf("trailing bytes after end marker: %v", err)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	e := NewEncoder(64)
	e.Uvarint(0)
	e.Uvarint(1<<63 + 17)
	e.Varint(-40)
	e.U32(0xdeadbeef)
	e.U64(0x0123456789abcdef)
	e.I64(-9e18)
	e.F64(3.141592653589793)
	e.F32(-2.5)
	e.Bool(true)
	e.Bool(false)
	e.Duration(-7e9)
	e.Str("hello, 世界")
	e.Str("")
	e.Blob([]byte{9, 8, 7})

	d := NewDecoder(e.Bytes())
	if v := d.Uvarint(); v != 0 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := d.Uvarint(); v != 1<<63+17 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := d.Varint(); v != -40 {
		t.Errorf("Varint = %d", v)
	}
	if v := d.U32(); v != 0xdeadbeef {
		t.Errorf("U32 = %x", v)
	}
	if v := d.U64(); v != 0x0123456789abcdef {
		t.Errorf("U64 = %x", v)
	}
	if v := d.I64(); v != -9e18 {
		t.Errorf("I64 = %d", v)
	}
	if v := d.F64(); v != 3.141592653589793 {
		t.Errorf("F64 = %v", v)
	}
	if v := d.F32(); v != -2.5 {
		t.Errorf("F32 = %v", v)
	}
	if v := d.Bool(); !v {
		t.Error("Bool = false, want true")
	}
	if v := d.Bool(); v {
		t.Error("Bool = true, want false")
	}
	if v := d.Duration(); v != -7e9 {
		t.Errorf("Duration = %v", v)
	}
	if v := d.Str(); v != "hello, 世界" {
		t.Errorf("Str = %q", v)
	}
	if v := d.Str(); v != "" {
		t.Errorf("Str = %q", v)
	}
	if v := d.Blob(); !bytes.Equal(v, []byte{9, 8, 7}) {
		t.Errorf("Blob = %x", v)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestDecoderSticky(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	_ = d.U64() // truncated
	if d.Err() == nil {
		t.Fatal("truncated U64 did not latch an error")
	}
	// Every later read returns zero values without panicking.
	if v := d.Uvarint(); v != 0 {
		t.Errorf("post-error Uvarint = %d", v)
	}
	if v := d.Str(); v != "" {
		t.Errorf("post-error Str = %q", v)
	}
	if err := d.Finish(); err == nil {
		t.Fatal("Finish after error = nil")
	}
}

func TestDecoderTrailingBytes(t *testing.T) {
	e := NewEncoder(8)
	e.U32(7)
	e.U32(9)
	d := NewDecoder(e.Bytes())
	_ = d.U32()
	if err := d.Finish(); err == nil {
		t.Fatal("Finish with unread bytes = nil")
	}
}

func TestDecoderCountGuard(t *testing.T) {
	// A huge claimed count with a tiny payload must fail, not allocate.
	e := NewEncoder(8)
	e.Uvarint(1 << 40)
	d := NewDecoder(e.Bytes())
	if n := d.Count(8); n != 0 {
		t.Fatalf("Count = %d, want 0", n)
	}
	if d.Err() == nil {
		t.Fatal("oversized count did not latch an error")
	}
}
