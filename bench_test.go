// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, each regenerating the artefact at Quick scale and reporting
// its headline metric, plus micro-benchmarks for the pipeline's hot paths.
//
//	go test -bench=. -benchmem
//
// The full, paper-sized artefacts are produced by `go run ./cmd/lteexperiments
// -scale full`; see EXPERIMENTS.md for the recorded comparison.
package ltefp_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"ltefp"
	"ltefp/internal/appmodel"
	"ltefp/internal/artifact"
	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/capture"
	"ltefp/internal/experiments"
	"ltefp/internal/features"
	"ltefp/internal/lte/crc"
	"ltefp/internal/lte/dci"
	"ltefp/internal/lte/network"
	"ltefp/internal/lte/operator"
	"ltefp/internal/ml/dataset"
	"ltefp/internal/ml/dtw"
	"ltefp/internal/ml/forest"
	"ltefp/internal/obs"
	"ltefp/internal/sim"
)

// BenchmarkTableIII regenerates Table III (lab fingerprinting, three
// sniffer-coverage variants) and reports the Down+Up weighted F1.
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableIII(experiments.Quick(), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Confusions[experiments.DownUp].WeightedF1(), "weighted-f1")
	}
}

// BenchmarkTableIV regenerates Table IV (real-world, downlink-only, three
// carriers) and reports the mean per-carrier weighted F1.
func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableIV(experiments.Quick(), 1)
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, c := range res.Carriers {
			sum += res.Confusions[c].WeightedF1()
		}
		b.ReportMetric(sum/float64(len(res.Carriers)), "weighted-f1")
	}
}

// BenchmarkTableV regenerates Table V (history attack) and reports the
// success rate (paper: 0.83).
func BenchmarkTableV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableV(experiments.Quick(), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Attack.SuccessRate(), "success-rate")
	}
}

// BenchmarkTableVIandVII regenerates Tables VI and VII (correlation
// attack) and reports the lab-setting mean similarity and the mean
// real-world contact precision.
func BenchmarkTableVIandVII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		vi, vii, err := experiments.TableVIandVII(experiments.Quick(), 1)
		if err != nil {
			b.Fatal(err)
		}
		var simSum float64
		for _, app := range vi.Apps {
			simSum += vi.Cells["Lab"][app].Mean
		}
		b.ReportMetric(simSum/float64(len(vi.Apps)), "lab-similarity")
		var prec, n float64
		for _, setting := range vii.Settings {
			if setting == "Lab" {
				continue
			}
			for _, app := range vii.Apps {
				c := vii.Cells[setting][app]
				prec += c.Precision()
				n++
			}
		}
		b.ReportMetric(prec/n, "real-world-precision")
	}
}

// BenchmarkTableVIII regenerates Table VIII (algorithm comparison) and
// reports Random Forest's lead over the CNN (paper: RF first, CNN last).
func BenchmarkTableVIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableVIII(experiments.Quick(), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Average[experiments.AlgRF], "rf-accuracy")
		b.ReportMetric(res.Average[experiments.AlgRF]-res.Average[experiments.AlgCNN], "rf-minus-cnn")
	}
}

// BenchmarkFigure8 regenerates Fig. 8 (drift decay) and reports the day
// the F-score crossed the 70% usability threshold (paper: ≈ day 7).
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure8(experiments.Quick(), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.CrossedBelow(0.70)), "crossing-day")
		b.ReportMetric(res.Points[0].F1, "day1-f1")
	}
}

// BenchmarkFigure9 regenerates Fig. 9 (noise impact) and reports the
// F-score drop from the clean baseline to ten background apps.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure9(experiments.Quick(), 1)
		if err != nil {
			b.Fatal(err)
		}
		first := res.Points[0].F1
		last := res.Points[len(res.Points)-1].F1
		b.ReportMetric(first-last, "f1-drop")
	}
}

// BenchmarkCostModel evaluates the §VII-D analytical cost model.
func BenchmarkCostModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.CostModel()
		total := 0.0
		for _, s := range res.Scenarios {
			total += s.Params.TotalCost(s.HorizonDays)
		}
		b.ReportMetric(total, "work-units")
	}
}

// --- ablation and extension benchmarks ---

// BenchmarkWindowSweep runs the §VI window-size study and reports the best
// width in milliseconds (the paper picks 100 ms).
func BenchmarkWindowSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.WindowSweep(experiments.Quick(), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Best().Window.Milliseconds()), "best-window-ms")
	}
}

// BenchmarkTwSweep runs the §VII-C similarity-window study and reports the
// best T_w in milliseconds.
func BenchmarkTwSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TwSweep(experiments.Quick(), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.BestTw().Milliseconds()), "best-tw-ms")
	}
}

// BenchmarkRetraining runs the §VI adaptive-maintenance study and reports
// the maintained attacker's advantage at the end of the horizon.
func BenchmarkRetraining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Retraining(experiments.Quick(), 1)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.Maintained-last.Static, "maintained-advantage")
		b.ReportMetric(float64(res.Retrainings), "retrainings")
	}
}

// BenchmarkConcealment runs the §VIII-C identity-concealment study and
// reports how much attribution 5G-style identifiers deny the attacker.
func BenchmarkConcealment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Concealment(experiments.Quick(), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].AttributedFraction-res.Rows[1].AttributedFraction, "attribution-denied")
	}
}

// --- pipeline micro-benchmarks ---

// BenchmarkBlindDecode measures the sniffer's per-message work: CRC
// re-computation, RNTI unmasking, and DCI parsing.
func BenchmarkBlindDecode(b *testing.B) {
	msg := dci.Message{Format: dci.Format1A, RBStart: 10, NPRB: 25, MCS: 17}
	payload := make([]byte, dci.PayloadLen)
	if err := msg.PackInto(payload); err != nil {
		b.Fatal(err)
	}
	masked := crc.Attach(payload, 0x4321)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := crc.RecoverRNTI(payload, masked)
		m, err := dci.Parse(payload)
		if err != nil || r != 0x4321 {
			b.Fatal("decode failed")
		}
		_ = m
	}
}

// BenchmarkDefendedCapture60s measures the same 60-second commercial
// capture as BenchmarkCapture60s with a moderate defense composition
// enabled — the per-TTI cost of the shaping machinery when it is actually
// on (its off-state cost is zero by the byte-identity contract).
func BenchmarkDefendedCapture60s(b *testing.B) {
	def := ltefp.Defense{
		RNTIRefresh:        2 * time.Second,
		TrafficMorphing:    true,
		GrantQuantum:       256,
		DummyBurstProb:     0.05,
		DummyBurstMaxBytes: 1200,
		SmartPaging:        true,
	}
	for i := 0; i < b.N; i++ {
		res, err := ltefp.Capture(ltefp.CaptureOptions{
			Network:  "T-Mobile",
			App:      "YouTube",
			Duration: time.Minute,
			Seed:     uint64(i + 1),
			Defenses: def,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Defense.OverheadBytes() == 0 {
			b.Fatal("defended capture measured zero overhead")
		}
	}
}

// BenchmarkParetoSweep runs the quick-scale defense arms race (nine
// compositions, adaptive attacker retrained per composition) and reports
// how much adaptive F1 the all-shaping composition costs the attacker.
func BenchmarkParetoSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Pareto(experiments.Quick(), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].AdaptiveF1-res.Rows[len(res.Rows)-1].AdaptiveF1, "f1-cost-to-attacker")
	}
}

// warmArtifactStore points the shared artifact store at a fresh disk
// directory, runs populate once to fill it, and restores the memory-only
// default when the benchmark ends. Each timed iteration should call
// artifact.Default.Reset first so it measures a restarted process serving
// entirely from the disk tier.
func warmArtifactStore(b *testing.B, populate func() error) {
	b.Helper()
	artifact.Default.Reset()
	if err := artifact.Default.SetDir(b.TempDir()); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := artifact.Default.SetDir(""); err != nil {
			b.Error(err)
		}
		artifact.Default.Reset()
	})
	if err := populate(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTableIIIWarm is BenchmarkTableIII served from a populated
// artifact store: an untimed cold run fills the disk tier, then every
// timed iteration drops the memory tier (simulating a restarted process)
// and regenerates the table from persisted captures, window matrices,
// datasets, and forests. Compare against BenchmarkTableIII for the
// cache's end-to-end speedup.
func BenchmarkTableIIIWarm(b *testing.B) {
	warmArtifactStore(b, func() error {
		_, err := experiments.TableIII(experiments.Quick(), 1)
		return err
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		artifact.Default.Reset()
		res, err := experiments.TableIII(experiments.Quick(), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Confusions[experiments.DownUp].WeightedF1(), "weighted-f1")
	}
}

// BenchmarkParetoSweepWarm is BenchmarkParetoSweep served from a
// populated artifact store; its speedup over the cold sweep is the
// BENCH_10 headline. The nine compositions re-extract nothing: shared
// scenarios dedupe through the capture tier and every dataset and
// retrained forest loads from disk.
func BenchmarkParetoSweepWarm(b *testing.B) {
	warmArtifactStore(b, func() error {
		_, err := experiments.Pareto(experiments.Quick(), 1)
		return err
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		artifact.Default.Reset()
		res, err := experiments.Pareto(experiments.Quick(), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].AdaptiveF1-res.Rows[len(res.Rows)-1].AdaptiveF1, "f1-cost-to-attacker")
	}
}

// BenchmarkCapture60s measures simulating and capturing one 60-second
// victim session on a loaded commercial cell.
func BenchmarkCapture60s(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := ltefp.Capture(ltefp.CaptureOptions{
			Network:  "T-Mobile",
			App:      "YouTube",
			Duration: time.Minute,
			Seed:     uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFabric128Cells measures the multi-cell fabric: 128 cells with
// ambient background load advanced two simulated seconds, serially and on
// eight workers. The headline metric is simulated cell-seconds per
// core-second of compute (cells/core-sec); the workers=8 wall-clock
// against workers=1 shows the fabric's scaling.
func BenchmarkFabric128Cells(b *testing.B) {
	const (
		cells  = 128
		simDur = 2 * time.Second
	)
	// A loaded commercial profile: 14 background UEs per cell, so the
	// 128-cell fabric carries ~1800 UEs — the regime the fabric exists for.
	profile := operator.TMobile()
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			n := network.New(42)
			n.SetWorkers(workers)
			for id := 1; id <= cells; id++ {
				if _, err := n.AddCell(id, profile); err != nil {
					b.Fatal(err)
				}
			}
			// Warm past the initial session ramp so the timed region
			// measures steady-state cell load.
			n.Run(12 * time.Second)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Run(n.Now() + simDur)
			}
			effective := workers
			if g := runtime.GOMAXPROCS(0); effective > g {
				effective = g // the fabric caps itself at GOMAXPROCS
			}
			cellSeconds := float64(b.N) * cells * simDur.Seconds()
			coreSeconds := b.Elapsed().Seconds() * float64(effective)
			b.ReportMetric(cellSeconds/coreSeconds, "cells/core-sec")
		})
	}
}

// TestFabricSteadyStateAllocBudget pins the steady-state allocation rate
// of the 128-cell fabric: once the session ramp has settled, advancing
// two simulated seconds must stay under budget. The budget has ~35%
// headroom over the measured rate (~2 200 allocs — connection-setup
// closures and app-session generation), low enough to trip on a
// per-drain or per-tick allocation sneaking back into the scheduler hot
// path (one idle-timer entry per queue drain alone pushed it past 3 600).
func TestFabricSteadyStateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fabric warmup; skipped with -short")
	}
	n := network.New(42)
	n.SetWorkers(1)
	for id := 1; id <= 128; id++ {
		if _, err := n.AddCell(id, operator.TMobile()); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(12 * time.Second)
	per := testing.AllocsPerRun(30, func() {
		n.Run(n.Now() + 2*time.Second)
	})
	const budget = 3000
	if per > budget {
		t.Fatalf("steady-state fabric advance allocates %.0f per 2 sim-seconds, budget %d", per, budget)
	}
	t.Logf("steady-state fabric advance: %.0f allocs per 2 sim-seconds (budget %d)", per, budget)
}

// pop10kScenario is the population-scale capture the Pop10k benchmark and
// tests share: a 60-second commercial-cell YouTube victim session on a cell
// with 10 000 background UEs under a metro-style 15-minute inactivity timer.
func pop10kScenario(tb testing.TB, seed uint64) capture.Scenario {
	tb.Helper()
	app, err := appmodel.ByName("YouTube")
	if err != nil {
		tb.Fatal(err)
	}
	profile := operator.TMobile()
	// A metro idle timer longer than the run: attached population stays
	// resident instead of being released two seconds after attach churn.
	profile.InactivityTimeout = 15 * time.Minute
	return capture.Scenario{
		Seed:  seed,
		Cells: []capture.Cell{{ID: 1, Profile: profile}},
		Sessions: []capture.Session{{
			UE: "victim", CellID: 1, App: app,
			Start: 500 * time.Millisecond, Duration: time.Minute,
		}},
		Population: 10_000,
		Settle:     2 * time.Second,
	}
}

// BenchmarkCapture60sPop10k is the population-scale headline: the same
// 60-second commercial-cell victim session as BenchmarkCapture60s, but
// with 10 000 mostly-idle background UEs attached to the cell under a
// metro-style 15-minute inactivity timer, so every one of them stays
// resident in the scheduler for the whole run while only ~1% are ever
// concurrently active. It exercises the O(active) scheduling ring and the
// inactivity deadlines parked on the cell's event queue, so a TTI costs
// O(active UEs), not O(attached).
func BenchmarkCapture60sPop10k(b *testing.B) {
	simSeconds := (500*time.Millisecond + time.Minute + 2*time.Second).Seconds()
	for i := 0; i < b.N; i++ {
		if _, err := capture.Run(pop10kScenario(b, uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
	ttis := float64(b.N) * simSeconds * 1000
	b.ReportMetric(ttis/b.Elapsed().Seconds(), "TTI/sec")
}

// TestCapturePop10kAllocBudget pins the allocation cost of one
// population-scale capture: the BenchmarkCapture60sPop10k scenario (60 s
// victim session on a cell with 10 000 resident background UEs) must
// stay under budget end to end. The measured rate is ~344k allocations —
// dominated by the one-time population setup (~34 per attached UE:
// identity build, GUTI-realloc scheduling, sparse background arrivals) —
// and the budget carries ~30% headroom. A per-retry or per-tick
// allocation regressing into the congested scheduler path blows far past
// it: the retry-closure pattern this guard was added against costs ~565k
// allocations on its own.
func TestCapturePop10kAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second population capture; skipped with -short")
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	scenario := pop10kScenario(t, 1)
	per := testing.AllocsPerRun(3, func() {
		if _, err := capture.Run(scenario); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 450_000
	if per > budget {
		t.Fatalf("population capture allocates %.0f per run, budget %d", per, budget)
	}
	t.Logf("population capture: %.0f allocs per run (budget %d)", per, budget)
}

// TestCapturePop10kDigest pins the output of the population-scale capture
// byte for byte: a SHA-256 over its records, identity events, pagings,
// health counters and the victim's identity-mapped trace, at two seeds.
// On a congested 10 000-UE cell most simulator events are PDCCH-blocked
// control retries, so this is the scenario where a change to the event
// queue's firing order would show first.
func TestCapturePop10kDigest(t *testing.T) {
	want := map[uint64]string{
		1: "3650b14bfbe92993a5b61285d1d8f5bb0f8f5b1ba675d7d9404e1a3c8ec4b4f0",
		2: "61cd887ce934198dd44e60435622bbaa4a9e94885fd69656c5ebd82db7cef47d",
	}
	for _, seed := range []uint64{1, 2} {
		res, err := capture.Run(pop10kScenario(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, r := range res.Records {
			fmt.Fprintf(h, "%v\n", r)
		}
		for _, e := range res.Events {
			fmt.Fprintf(h, "%v\n", e)
		}
		for _, p := range res.Pagings {
			fmt.Fprintf(h, "%v\n", p)
		}
		fmt.Fprintf(h, "health=%+v\n", res.Health)
		for _, r := range res.UserTrace("victim") {
			fmt.Fprintf(h, "%v\n", r)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[seed] {
			t.Errorf("seed %d: capture digest %s, want %s", seed, got, want[seed])
		}
	}
}

// BenchmarkFabric128CellsPop1k is BenchmarkFabric128Cells at population
// scale: 128 cells each carrying 1 000 mostly-idle attached UEs (128 000
// resident contexts fabric-wide) on a metro-style idle timer, advanced two
// simulated seconds per iteration after the attach churn has settled.
// cells/core-sec against BenchmarkFabric128Cells shows what a 70×
// increase in attached population costs when the per-TTI path is
// O(active).
func BenchmarkFabric128CellsPop1k(b *testing.B) {
	const (
		cells  = 128
		pop    = 1000
		simDur = 2 * time.Second
	)
	profile := operator.TMobile()
	profile.InactivityTimeout = 15 * time.Minute
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			n := network.New(42)
			n.SetWorkers(workers)
			for id := 1; id <= cells; id++ {
				if _, err := n.AddCell(id, profile); err != nil {
					b.Fatal(err)
				}
			}
			for id := 1; id <= cells; id++ {
				for i := 0; i < pop; i++ {
					u := n.NewUE(fmt.Sprintf("pop-%d-%d", id, i))
					n.Camp(u, id)
					n.StartSparseBackground(u)
				}
			}
			// Warm past the population's staggered attach churn (all
			// within the first ten seconds) so the timed region measures
			// the parked steady state the optimisation targets.
			n.Run(12 * time.Second)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Run(n.Now() + simDur)
			}
			effective := workers
			if g := runtime.GOMAXPROCS(0); effective > g {
				effective = g
			}
			cellSeconds := float64(b.N) * cells * simDur.Seconds()
			coreSeconds := b.Elapsed().Seconds() * float64(effective)
			b.ReportMetric(cellSeconds/coreSeconds, "cells/core-sec")
		})
	}
}

// streamBenchModel trains the live-pipeline benchmark's fingerprinter
// once, outside any timed region.
var streamBenchModel struct {
	once sync.Once
	fp   *ltefp.Fingerprinter
	err  error
}

// BenchmarkStream60s measures the streaming attack end to end — the same
// 60-second commercial-cell session as BenchmarkCapture60s, but classified
// while it runs through the internal/stream pipeline instead of recorded
// for post-hoc analysis. The gap to BenchmarkCapture60s is the price of
// going live.
func BenchmarkStream60s(b *testing.B) {
	streamBenchModel.once.Do(func() {
		td, err := ltefp.CollectTraining(ltefp.TrainingOptions{
			SessionsPerApp:  2,
			SessionDuration: 20 * time.Second,
			Seed:            1,
		})
		if err != nil {
			streamBenchModel.err = err
			return
		}
		streamBenchModel.fp, streamBenchModel.err = ltefp.TrainFingerprinter(td, 1)
	})
	if streamBenchModel.err != nil {
		b.Fatal(streamBenchModel.err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := ltefp.LiveCapture(context.Background(), ltefp.LiveOptions{
			Capture: ltefp.CaptureOptions{
				Network:  "T-Mobile",
				App:      "YouTube",
				Duration: time.Minute,
				Seed:     uint64(i + 1),
			},
			Model: streamBenchModel.fp,
		})
		if err != nil {
			b.Fatal(err)
		}
		if st.Verdicts == 0 {
			b.Fatal("stream run produced no verdicts")
		}
	}
}

// BenchmarkForestPredictBatch measures batched classification of a full
// test matrix by a 100-tree forest — the evaluation loops' inference cost,
// also reported per window.
func BenchmarkForestPredictBatch(b *testing.B) {
	g := sim.NewRNG(1)
	ds := benchDataset(g)
	f, err := forest.Train(ds, forest.Config{Trees: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	out := make([]int, ds.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictBatchInto(ds.X, out)
	}
	b.StopTimer()
	perWindow := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(ds.Len())
	b.ReportMetric(perWindow, "ns/window")
}

// BenchmarkForestPredictBatchObs is BenchmarkForestPredictBatch with a live
// metrics registry attached — the delta between the two is the observability
// overhead on the inference hot path (budget: <2%).
func BenchmarkForestPredictBatchObs(b *testing.B) {
	reg := obs.NewRegistry()
	forest.SetMetrics(reg.Scope("pipeline").Scope("forest"))
	b.Cleanup(func() { forest.SetMetrics(obs.Scope{}) })
	g := sim.NewRNG(1)
	ds := benchDataset(g)
	f, err := forest.Train(ds, forest.Config{Trees: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	out := make([]int, ds.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictBatchInto(ds.X, out)
	}
	b.StopTimer()
	perWindow := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(ds.Len())
	b.ReportMetric(perWindow, "ns/window")
}

// BenchmarkCapture60sObs is BenchmarkCapture60s with a live metrics
// registry: the per-candidate sniffer counters and per-tick scheduler
// histograms are the densest instrumentation in the pipeline, so this pair
// bounds the worst-case observability overhead.
func BenchmarkCapture60sObs(b *testing.B) {
	reg := obs.NewRegistry()
	for i := 0; i < b.N; i++ {
		reg.Reset()
		_, err := ltefp.Capture(ltefp.CaptureOptions{
			Network:  "T-Mobile",
			App:      "YouTube",
			Duration: time.Minute,
			Seed:     uint64(i + 1),
			Metrics:  reg,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestTrain measures fitting the paper's forest configuration.
func BenchmarkForestTrain(b *testing.B) {
	g := sim.NewRNG(2)
	ds := benchDataset(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := forest.Train(ds, forest.Config{Trees: 100, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFingerprintTrain measures fitting the whole two-level
// hierarchy (the category forest and the three app forests, 100 trees
// each) on about 10 000 window vectors of every app's, the size of one
// Table III variant's training set. Half the columns are small integers,
// so the columns tie the way packet and grant counts do.
func BenchmarkFingerprintTrain(b *testing.B) {
	g := sim.NewRNG(4)
	ts := fingerprint.NewTrainingSet()
	for a, app := range appmodel.Apps() {
		vecs := make([][]float64, 1100)
		for i := range vecs {
			x := make([]float64, features.TotalDim)
			for j := range x {
				if j%2 == 0 {
					x[j] = g.Normal(float64(a*(j%3)), 2)
				} else {
					x[j] = float64(g.IntN(6) + a%(j%4+1))
				}
			}
			vecs[i] = x
		}
		if err := ts.Add(app.Name, vecs); err != nil {
			b.Fatal(err)
		}
	}
	cfg := fingerprint.Config{Forest: forest.Config{Trees: 100, Seed: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fingerprint.Train(ts, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDTW measures one pairwise similarity over two 10-minute
// rate series (600 one-second bins), the correlation attack's inner loop.
func BenchmarkDTW(b *testing.B) {
	g := sim.NewRNG(3)
	x := make([]float64, 600)
	y := make([]float64, 600)
	for i := range x {
		x[i] = g.Uniform(0, 50)
		y[i] = g.Uniform(0, 50)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dtw.Similarity(x, y)
	}
}

// BenchmarkDTWAligner is BenchmarkDTW through a reused Aligner — the
// correlation attack's actual pairwise loop, which amortises the
// normalization and DP-row buffers across comparisons.
func BenchmarkDTWAligner(b *testing.B) {
	g := sim.NewRNG(3)
	x := make([]float64, 600)
	y := make([]float64, 600)
	for i := range x {
		x[i] = g.Uniform(0, 50)
		y[i] = g.Uniform(0, 50)
	}
	al := dtw.NewAligner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = al.Similarity(x, y)
	}
}

// BenchmarkDTWCascade measures the lower-bound cascade on a prunable pair:
// a 600-bin noise series against a slow sine under a 0.6 similarity
// threshold, through prebuilt Series and a reused Aligner — the contact
// sweep's per-pair hot path. LB_Keogh rejects the pair in O(n) without
// touching the quadratic DP; compare against BenchmarkDTWAligner, which
// always pays the full banded DP.
func BenchmarkDTWCascade(b *testing.B) {
	g := sim.NewRNG(3)
	x := make([]float64, 600)
	y := make([]float64, 600)
	for i := range x {
		x[i] = g.Uniform(0, 50)
		y[i] = 25 + 25*math.Sin(2*math.Pi*float64(i)/600) + g.Uniform(-1, 1)
	}
	sx := dtw.NewSeries(x)
	sy := dtw.NewSeries(y)
	al := dtw.NewAligner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, stage := al.CascadeSimilarity(sx, sy, 0.6); stage == dtw.StageFull {
			b.Fatal("benchmark pair was not pruned")
		}
	}
}

// benchSweepUsers builds the 256-user population both sweep benchmarks
// share, reusing the deterministic generator from the API tests.
func benchSweepUsers() []ltefp.SweepUser {
	users := make([]ltefp.SweepUser, 256)
	for u := range users {
		users[u] = ltefp.SweepUser{ID: "u", Records: sweepRecords(u, 60)}
	}
	return users
}

// BenchmarkSweep256Users measures population-scale contact discovery: 256
// users, 32640 pairs, 0.6 similarity threshold, through the sharded
// lower-bound cascade. BenchmarkSweepBrute256Users is the same workload as
// a nested pairwise-Correlate loop — the sweep must beat it by ≥5x while
// returning byte-identical evidence (pinned by TestSweepMatchesBruteForce).
func BenchmarkSweep256Users(b *testing.B) {
	users := benchSweepUsers()
	span := 60 * time.Second
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		findings, err := ltefp.ContactSweep(users, ltefp.ContactSweepOptions{
			End: span, MinSimilarity: 0.6,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(findings) == 0 {
			b.Fatal("sweep found nothing to keep")
		}
	}
}

func BenchmarkSweepBrute256Users(b *testing.B) {
	users := benchSweepUsers()
	span := 60 * time.Second
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kept := 0
		for a := 0; a < len(users); a++ {
			for c := a + 1; c < len(users); c++ {
				ev, err := ltefp.Correlate(users[a].Records, users[c].Records, 0, span)
				if err != nil {
					b.Fatal(err)
				}
				if ev.Similarity >= 0.6 {
					kept++
				}
			}
		}
		if kept == 0 {
			b.Fatal("brute sweep found nothing to keep")
		}
	}
}

// BenchmarkWindowExtraction measures trace windowing plus feature
// extraction (features.FromTrace) for one 60-second capture.
func BenchmarkWindowExtraction(b *testing.B) {
	app, err := appmodel.ByName("YouTube")
	if err != nil {
		b.Fatal(err)
	}
	traces, err := fingerprint.CollectTraces(fingerprint.CollectSpec{
		Profile:    operator.Lab(),
		App:        app,
		Sessions:   1,
		SessionDur: time.Minute,
		Seed:       4,
	})
	if err != nil {
		b.Fatal(err)
	}
	tr := traces[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		features.FromTrace(tr, fingerprint.DefaultWindow, fingerprint.DefaultWindow)
	}
}

// benchDataset builds a training matrix shaped like the real pipeline's
// (25 features, 9 classes, a few thousand rows).
func benchDataset(g *sim.RNG) *dataset.Dataset {
	names := make([]string, 9)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	ds := dataset.New(names, nil)
	for i := 0; i < 4000; i++ {
		y := i % 9
		x := make([]float64, 25)
		for j := range x {
			x[j] = g.Normal(float64(y*(j%3)), 2)
		}
		ds.Add(x, y)
	}
	return ds
}
