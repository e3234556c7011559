package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"ltefp/internal/artifact"
)

// TestRunnerDigestsAcrossWorkers pins the tiny-scale rendering of every
// runner that fans campaigns out but has no golden of its own, at one
// worker and at eight. A moved digest is an output change, never a
// scheduling artefact: every task derives its own seed and writes to
// index-addressed storage.
func TestRunnerDigestsAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("six tiny-scale runners at two worker counts take several seconds; skipped with -short")
	}
	runners := []struct {
		name string
		run  func(Scale, uint64) (fmt.Stringer, error)
		want string
	}{
		{"TableVIII", func(s Scale, seed uint64) (fmt.Stringer, error) { return TableVIII(s, seed) }, "f299380e8a20a2b54c7c017bb8cf7143edf8c50a41c5fd3b3ecb7914297999cd"},
		{"Figure8", func(s Scale, seed uint64) (fmt.Stringer, error) { return Figure8(s, seed) }, "86479807a5999bbfb31e18b356efcf4f215d0607b211e52f66d7de67ed1dc68c"},
		{"Figure9", func(s Scale, seed uint64) (fmt.Stringer, error) { return Figure9(s, seed) }, "9d58ef4ff59e6f1d49fdb1d17f656f1c8b939e09c39d43c7315e727f1d687633"},
		{"WindowSweep", func(s Scale, seed uint64) (fmt.Stringer, error) { return WindowSweep(s, seed) }, "db162e7493975eab0c0489c170667444eea2a8f7564a6e81212ba307eb6edaac"},
		{"TableVIandVII", func(s Scale, seed uint64) (fmt.Stringer, error) {
			vi, vii, err := TableVIandVII(s, seed)
			if err != nil {
				return nil, err
			}
			return stringer(vi.String() + vii.String()), nil
		}, "9a4326e2cb62bb3001825f177a7110c2fedb308eccecd37d2abb7c20eeb83bdb"},
		{"Retraining", func(s Scale, seed uint64) (fmt.Stringer, error) { return Retraining(s, seed) }, "f774d4055946b19aee1784e838b0175f54b25d9b6307453ba371ddcdd37a11de"},
	}
	t.Cleanup(artifact.Default.Reset)
	for _, r := range runners {
		for _, workers := range []int{1, 8} {
			artifact.Default.Reset()
			restore := SetWorkers(workers)
			res, err := r.run(tinyScale(), 3)
			restore()
			if err != nil {
				t.Fatalf("%s (workers %d): %v", r.name, workers, err)
			}
			sum := sha256.Sum256([]byte(res.String()))
			if got := hex.EncodeToString(sum[:]); got != r.want {
				t.Errorf("%s (workers %d): digest %s, want %s\n%s", r.name, workers, got, r.want, res)
			}
		}
	}
}

// stringer adapts a pre-rendered result to fmt.Stringer.
type stringer string

func (s stringer) String() string { return string(s) }
