package stream_test

import (
	"context"
	"testing"
	"time"

	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/capture"
	"ltefp/internal/stream"
)

// TestPredictBatchIntoSteadyStateAllocs pins the classify step's hot
// path: once the scratch is warm, batched hierarchy prediction must not
// allocate at all. The batch is capped at one forest chunk (256 rows) so
// the serial walk runs regardless of GOMAXPROCS — the parallel path spawns
// goroutines, which allocate by design.
func TestPredictBatchIntoSteadyStateAllocs(t *testing.T) {
	clf := classifier(t)
	cap1, err := capture.Run(twoUserScenario(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	vecs := fingerprint.WindowVectors(cap1.Records, clf.Window, clf.Stride)
	if len(vecs) == 0 {
		t.Fatal("no window vectors to classify")
	}
	if len(vecs) > 256 {
		vecs = vecs[:256]
	}
	out := make([]string, len(vecs))
	var s fingerprint.BatchScratch
	clf.PredictBatchInto(vecs, out, &s) // warm the scratch + packed forests
	allocs := testing.AllocsPerRun(10, func() {
		clf.PredictBatchInto(vecs, out, &s)
	})
	if allocs != 0 {
		t.Fatalf("warm PredictBatchInto allocates %.1f objects per call, want 0", allocs)
	}
}

// TestRunAllocBound guards the whole pipeline's allocation budget: record
// slices are recycled, the row bundle is reused, and vote rings come from
// slabs, so a Run's allocations are dominated by fixed per-run setup plus
// a small per-user cost — NOT by per-batch churn. The bound (12
// allocations per source batch, ~3x the measured steady state) would be
// blown an order of magnitude by any regression back to
// allocate-per-batch behaviour, which cost ~40/batch.
func TestRunAllocBound(t *testing.T) {
	clf := classifier(t)
	cap1, err := capture.Run(twoUserScenario(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	const slice = 25 * time.Millisecond
	end := cap1.Records[len(cap1.Records)-1].At
	batches := int(end/slice) + 2

	run := func() {
		src := &stream.ReplaySource{Trace: cap1.Records, Slice: slice}
		if _, err := stream.Run(context.Background(), src, stream.Config{Classifier: clf}); err != nil {
			t.Error(err)
		}
	}
	run() // warm package-level lazy state (packed forests, app tables)
	allocs := testing.AllocsPerRun(3, run)
	perBatch := allocs / float64(batches)
	t.Logf("%.0f allocs per run over ~%d source batches (%.2f/batch)", allocs, batches, perBatch)
	if perBatch > 12 {
		t.Fatalf("pipeline allocates %.2f objects per source batch (%.0f total / %d batches), want <= 12 — per-batch recycling has regressed", perBatch, allocs, batches)
	}
}
