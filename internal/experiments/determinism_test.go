package experiments

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"ltefp/internal/artifact"
	"ltefp/internal/obs"
)

// tinyScale is the smallest campaign that still exercises every app
// category, sized so the serial/parallel comparison stays fast.
func tinyScale() Scale {
	return Scale{
		Name:            "tiny",
		StreamSessions:  2,
		VoipSessions:    2,
		MsgSessions:     3,
		StreamDur:       15 * time.Second,
		VoipDur:         15 * time.Second,
		MsgDur:          20 * time.Second,
		PairsPerSetting: 2,
		PairDur:         20 * time.Second,
		Fig8Days:        3,
		Fig8Step:        2,
		HistoryFactor:   0.2,
	}
}

// TestTableIIISerialParallelIdentical proves the parallel runner is
// byte-identical to serial execution: every cell derives its own seed, so
// the worker schedule must not be able to influence any metric.
func TestTableIIISerialParallelIdentical(t *testing.T) {
	artifact.Default.Reset()
	restore := SetWorkers(1)
	serial, err := TableIII(tinyScale(), 3)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	// Drop the memoized captures so the parallel run actually re-simulates;
	// otherwise it would just re-read the serial run's cached captures and
	// the comparison would prove nothing about the worker schedule.
	artifact.Default.Reset()
	restore = SetWorkers(8)
	parallel, err := TableIII(tinyScale(), 3)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if s, p := serial.String(), parallel.String(); s != p {
		t.Errorf("parallel Table III diverged from serial:\nserial:\n%s\nparallel:\n%s", s, p)
	}
}

// TestTableIIIQuickGolden pins the Quick-scale Table III output to the
// rendering recorded from the pre-overhaul serial implementation — the
// end-to-end determinism guarantee over collection, training, and batched
// evaluation. Regenerate testdata/tableiii_quick_seed1.golden only for an
// intentional semantic change.
func TestTableIIIQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-scale table III takes several seconds; skipped with -short")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "tableiii_quick_seed1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := TableIII(Quick(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.String(); got != string(want) {
		t.Errorf("Table III (quick, seed 1) diverged from golden output:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestMetricsDoNotChangeOutput proves instrumentation is observation-only:
// running the golden experiment with a live registry must not change a
// single output byte, while the registry itself must show the pipeline was
// actually measured (counters at zero would mean the instrumentation is
// dead code, not that it is free). Metrics runs go through the artifact
// store like any other, so a warm rerun with a fresh registry must render
// the same bytes while its counters show no computed work — sniffing and
// training were served, and the cache line says so.
func TestMetricsDoNotChangeOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-scale table III takes several seconds; skipped with -short")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "tableiii_quick_seed1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	artifact.Default.Reset()
	t.Cleanup(artifact.Default.Reset)
	defer SetMetrics(nil)

	reg := obs.NewRegistry()
	SetMetrics(reg)
	res, err := TableIII(Quick(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.String(); got != string(want) {
		t.Errorf("live metrics registry changed Table III output:\ngot:\n%s\nwant:\n%s", got, want)
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		"pipeline.cell1.sniffer.candidates",
		"pipeline.cell1.sniffer.records",
		"pipeline.cell1.enb.grants_dl",
		"pipeline.forest.rows_trained",
		"pipeline.forest.rows_predicted",
		"pipeline.workers.tasks",
	} {
		if snap.Counter(name) == 0 {
			t.Errorf("metrics enabled but %s stayed zero", name)
		}
	}
	if h, ok := snap.Histogram("pipeline.workers.task_ms"); !ok || h.Count == 0 {
		t.Error("worker-pool wall-time histogram recorded nothing")
	}

	warmReg := obs.NewRegistry()
	SetMetrics(warmReg)
	warm, err := TableIII(Quick(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.String(); got != res.String() {
		t.Errorf("warm metrics rerun diverged from the cold run:\ngot:\n%s\nwant:\n%s", got, res.String())
	}
	warmSnap := warmReg.Snapshot()
	for _, name := range []string{
		"pipeline.cell1.sniffer.candidates",
		"pipeline.forest.rows_trained",
	} {
		if v := warmSnap.Counter(name); v != 0 {
			t.Errorf("warm rerun reports %s = %d, want 0 (served work is not computed work)", name, v)
		}
	}
	if v := warmSnap.Counter("pipeline.cache.mem_hits"); v == 0 {
		t.Error("warm rerun reports no memory-tier hits; served work must show on the cache line")
	}
}
