package artifact

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// fuzzEntryBytes renders a valid disk entry for testCodec under key k,
// exactly as diskWrite would lay it out.
func fuzzEntryBytes(t testing.TB, c Codec, k Key, payload []byte) []byte {
	t.Helper()
	dir := t.TempDir()
	s := NewStore(0)
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetOrCompute(c, k, func() (any, error) { return payload, nil }); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(entryPath(dir, c.Kind(), k))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzArtifactDecode feeds arbitrary bytes to the full disk-entry read
// path — container parsing, CRC checks, identity validation, codec decode
// — through a real store lookup. Whatever the file contains, the store
// must uphold its contract: no panic, no error surfaced to the caller
// (disk problems degrade to recompute), and a coherent entry on disk
// afterwards, so a second process reads the same value the first served.
func FuzzArtifactDecode(f *testing.F) {
	key := keyOf("fuzz-entry")
	valid := fuzzEntryBytes(f, testCodec, key, []byte("fuzz seed payload"))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])           // truncation
	f.Add([]byte{})                       // empty file
	f.Add(bytes.Repeat([]byte{0xFF}, 64)) // garbage
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x20
	f.Add(flipped) // bit flip
	skewed := fuzzEntryBytes(f, blobCodec{kind: testCodec.kind, version: 2}, key, []byte("fuzz seed payload"))
	f.Add(skewed) // version skew
	wrongKey := fuzzEntryBytes(f, testCodec, keyOf("some-other-entry"), []byte("fuzz seed payload"))
	f.Add(wrongKey) // valid entry filed under the wrong key

	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		path := entryPath(dir, testCodec.Kind(), key)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s := NewStore(0)
		if err := s.SetDir(dir); err != nil {
			t.Fatal(err)
		}
		computed := []byte("recomputed value")
		v, err := s.GetOrCompute(testCodec, key, func() (any, error) { return computed, nil })
		if err != nil {
			t.Fatalf("lookup surfaced a disk problem: %v", err)
		}
		got, ok := v.([]byte)
		if !ok {
			t.Fatalf("lookup returned %T", v)
		}
		st := s.ReadStats().Total()
		if st.DiskHits+st.Misses != 1 {
			t.Fatalf("stats %+v: want exactly one hit or miss", st)
		}
		if st.Misses == 1 && !bytes.Equal(got, computed) {
			t.Fatalf("miss served %q instead of the computed value", got)
		}
		// Whether the entry was served or replaced, a fresh process must now
		// read the same value back without recomputing.
		s2 := NewStore(0)
		if err := s2.SetDir(dir); err != nil {
			t.Fatal(err)
		}
		v2, err := s2.GetOrCompute(testCodec, key, func() (any, error) {
			t.Error("entry not durable: second store had to recompute")
			return computed, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(v2.([]byte), got) {
			t.Fatalf("second store read %q, first served %q", v2, got)
		}
	})
}
