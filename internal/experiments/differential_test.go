package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"ltefp/internal/artifact"
)

// readGolden loads a committed golden rendering. Set UPDATE_GOLDEN=1 to
// regenerate it from the current output (for an intentional semantic
// change only).
func readGolden(t *testing.T, name, got string) string {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(want)
}

// TestWarmRunByteIdenticalToCold is the differential contract of the
// artifact store: an experiment run served entirely from the persistent
// cache must render byte-identically to the cold run that populated it —
// and both must match the committed goldens, so a cache bug cannot hide
// behind a matching pair of wrong outputs. A third leg corrupts every
// entry on disk and proves the rerun discards and recomputes rather than
// serving damaged artifacts.
func TestWarmRunByteIdenticalToCold(t *testing.T) {
	if testing.Short() {
		t.Skip("cold quick-scale runs take several seconds; skipped with -short")
	}
	artifact.Default.Reset()
	dir := t.TempDir()
	if err := artifact.Default.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := artifact.Default.SetDir(""); err != nil {
			t.Error(err)
		}
		artifact.Default.Reset()
	}()

	coldT3, err := TableIII(Quick(), 1)
	if err != nil {
		t.Fatal(err)
	}
	coldP, err := Pareto(tinyScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := readGolden(t, "tableiii_quick_seed1.golden", coldT3.String()); coldT3.String() != want {
		t.Fatalf("cold Table III diverged from golden:\ngot:\n%s\nwant:\n%s", coldT3, want)
	}
	if want := readGolden(t, "pareto_tiny_seed1.golden", coldP.String()); coldP.String() != want {
		t.Fatalf("cold Pareto diverged from golden:\ngot:\n%s\nwant:\n%s", coldP, want)
	}

	// Simulate a restarted process: the memory tier is gone, the disk
	// tier survives. The warm run must not compute anything.
	artifact.Default.Reset()
	warmT3, err := TableIII(Quick(), 1)
	if err != nil {
		t.Fatal(err)
	}
	warmP, err := Pareto(tinyScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if warmT3.String() != coldT3.String() {
		t.Errorf("warm Table III is not byte-identical to cold:\nwarm:\n%s\ncold:\n%s", warmT3, coldT3)
	}
	if warmP.String() != coldP.String() {
		t.Errorf("warm Pareto is not byte-identical to cold:\nwarm:\n%s\ncold:\n%s", warmP, coldP)
	}
	st := artifact.Default.ReadStats()
	tot := st.Total()
	if tot.Misses != 0 {
		t.Errorf("warm run recomputed %d artifacts: %+v", tot.Misses, st.PerKind)
	}
	if tot.DiskHits == 0 {
		t.Error("warm run hit the disk tier zero times")
	}

	// Corrupt every persisted entry: the rerun must detect, discard, and
	// recompute each one it touches — and still render the golden bytes.
	entries, err := filepath.Glob(filepath.Join(dir, "*", "*", "*.snap"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no disk entries to corrupt (err=%v)", err)
	}
	for _, path := range entries {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x04
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	artifact.Default.Reset()
	reT3, err := TableIII(Quick(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if reT3.String() != coldT3.String() {
		t.Errorf("post-corruption Table III diverged:\ngot:\n%s\nwant:\n%s", reT3, coldT3)
	}
	st = artifact.Default.ReadStats()
	tot = st.Total()
	if tot.DiskHits != 0 {
		t.Errorf("corrupted entries were served: %+v", st.PerKind)
	}
	if tot.DiskDiscards == 0 || tot.Misses == 0 {
		t.Errorf("corrupted entries were not discarded and recomputed: %+v", st.PerKind)
	}
	for _, kind := range []artifact.Kind{artifact.KindDataset, artifact.KindForest} {
		if ks := st.PerKind[kind]; ks.DiskDiscards == 0 {
			t.Errorf("%s: corrupted entry not discarded: %+v", kind, ks)
		}
	}
}

// TestRetrainingStaticIsFigure8 pins that the retraining study's static
// attacker is the Fig. 8 attacker: same days, same F-scores, bit for bit.
func TestRetrainingStaticIsFigure8(t *testing.T) {
	for _, seed := range []uint64{1, 3} {
		fig8, err := Figure8(tinyScale(), seed)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := Retraining(tinyScale(), seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(rt.Points) != len(fig8.Points) {
			t.Fatalf("seed %d: retraining has %d days, Figure 8 %d", seed, len(rt.Points), len(fig8.Points))
		}
		for i, p := range fig8.Points {
			if rt.Points[i].Day != p.Day || rt.Points[i].Static != p.F1 {
				t.Errorf("seed %d point %d: retraining static (day %d, F1 %v) != Figure 8 (day %d, F1 %v)",
					seed, i, rt.Points[i].Day, rt.Points[i].Static, p.Day, p.F1)
			}
		}
	}
}
