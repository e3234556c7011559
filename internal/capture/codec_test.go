package capture

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ltefp/internal/artifact"
	"ltefp/internal/snapshot"
)

// encodeCapture runs the codec forward.
func encodeCapture(t *testing.T, c *Capture) []byte {
	t.Helper()
	e := snapshot.NewEncoder(1 << 16)
	if err := (captureCodec{}).Encode(e, c); err != nil {
		t.Fatal(err)
	}
	return e.Bytes()
}

// decodeCapture runs the codec backward, requiring exact consumption.
func decodeCapture(t *testing.T, b []byte) *Capture {
	t.Helper()
	d := snapshot.NewDecoder(b)
	v, err := (captureCodec{}).Decode(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return v.(*Capture)
}

// TestCaptureCodecRoundTrip proves a decoded capture is behaviourally
// identical to the original: every field matches and identity queries
// (UserTrace over the rebuilt Mapper) return the same records.
func TestCaptureCodecRoundTrip(t *testing.T) {
	orig, err := Run(testScenario())
	if err != nil {
		t.Fatal(err)
	}
	if len(orig.Records) == 0 || len(orig.Events) == 0 {
		t.Fatal("test scenario produced an empty capture")
	}
	got := decodeCapture(t, encodeCapture(t, orig))

	if !reflect.DeepEqual(got.Records, orig.Records) {
		t.Error("records differ after round trip")
	}
	if !reflect.DeepEqual(got.Events, orig.Events) {
		t.Error("identity events differ after round trip")
	}
	if !reflect.DeepEqual(got.Pagings, orig.Pagings) {
		t.Error("paging events differ after round trip")
	}
	if !reflect.DeepEqual(got.TMSIs, orig.TMSIs) {
		t.Error("TMSI history differs after round trip")
	}
	if got.Dropped != orig.Dropped || got.Health != orig.Health || got.Defense != orig.Defense {
		t.Error("counters differ after round trip")
	}
	if !reflect.DeepEqual(got.Mapper.Intervals(), orig.Mapper.Intervals()) {
		t.Error("identity intervals differ after round trip")
	}
	ut, wt := got.UserTrace("victim"), orig.UserTrace("victim")
	if !reflect.DeepEqual(ut, wt) {
		t.Errorf("UserTrace differs after round trip: %d vs %d records", len(ut), len(wt))
	}
	// Determinism: encoding the decoded capture must reproduce the bytes.
	if string(encodeCapture(t, got)) != string(encodeCapture(t, orig)) {
		t.Error("re-encoding is not byte-identical")
	}
}

// TestCaptureCodecRejectsDamage truncates and bit-flips the payload at
// several offsets: the decoder must error, never return a wrong capture.
func TestCaptureCodecRejectsDamage(t *testing.T) {
	orig, err := Run(testScenario())
	if err != nil {
		t.Fatal(err)
	}
	b := encodeCapture(t, orig)
	for _, cut := range []int{0, 1, len(b) / 3, len(b) / 2, len(b) - 1} {
		d := snapshot.NewDecoder(b[:cut])
		if v, err := (captureCodec{}).Decode(d); err == nil && d.Finish() == nil {
			// Truncation can only pass if it decoded the identical capture —
			// which a strict prefix cannot.
			t.Errorf("truncation at %d/%d decoded without error: %T", cut, len(b), v)
		}
	}
}

// TestRunCachedDiskTier drives RunCached through a persistent cache
// directory: a cold process populates it, a "restarted" process (memory
// tier dropped) must be served by disk with no re-simulation, and a
// corrupted entry must be discarded and recomputed.
func TestRunCachedDiskTier(t *testing.T) {
	resetCacheT(t)
	dir := t.TempDir()
	if err := artifact.Default.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := artifact.Default.SetDir(""); err != nil {
			t.Fatal(err)
		}
	}()

	sc := testScenario()
	cold, err := RunCached(sc)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := cacheStats(); st.Misses != 1 {
		t.Fatalf("cold stats = %+v", st)
	}

	// Simulate a restart: drop the memory tier, keep the disk.
	artifact.Default.Reset()
	warm, err := RunCached(sc)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := cacheStats()
	if st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("warm stats = %+v, want a pure disk hit", st)
	}
	if !reflect.DeepEqual(warm.Records, cold.Records) ||
		!reflect.DeepEqual(warm.UserTrace("victim"), cold.UserTrace("victim")) {
		t.Fatal("disk-served capture differs from the simulated one")
	}

	// Corrupt the entry on disk: the next cold-memory run must detect it,
	// discard it, and re-simulate.
	var entry string
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Ext(path) == ".snap" {
			entry = path
		}
		return nil
	})
	if entry == "" {
		t.Fatal("no disk entry written")
	}
	raw, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(entry, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	artifact.Default.Reset()
	re, err := RunCached(sc)
	if err != nil {
		t.Fatal(err)
	}
	st, _ = cacheStats()
	if st.Misses != 1 || st.DiskHits != 0 {
		t.Fatalf("post-corruption stats = %+v, want a recompute", st)
	}
	if !reflect.DeepEqual(re.Records, cold.Records) {
		t.Fatal("recomputed capture differs")
	}
}
