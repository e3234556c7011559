package stream_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"ltefp/internal/capture"
	"ltefp/internal/obs"
	"ltefp/internal/stream"
)

// waitGoroutines polls until the goroutine count drops back to the
// baseline (or a grace period expires), absorbing runtime bookkeeping
// noise.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamCancelDrainsCleanly cancels a pipeline mid-run and checks the
// contract: Run returns the context error, the stages drain rather than
// abandon in-flight work, and no goroutine outlives the call.
func TestStreamCancelDrainsCleanly(t *testing.T) {
	c := classifier(t)
	res, err := capture.Run(twoUserScenario(t, 31))
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var rows int
	cfg := stream.Config{
		Classifier: c,
		TapWindow: func(stream.Key, time.Duration, []float64) {
			rows++
			if rows == 10 {
				cancel()
			}
			time.Sleep(time.Millisecond)
		},
	}
	st, err := stream.Run(ctx, &stream.ReplaySource{Trace: res.Records, Slice: 100 * time.Millisecond}, cfg)
	if err != context.Canceled {
		t.Fatalf("cancelled Run returned %v, want context.Canceled", err)
	}
	if st == nil {
		t.Fatal("cancelled Run returned nil stats")
	}
	if rows < 10 {
		t.Fatalf("pipeline stopped after %d rows, cancel fired at 10", rows)
	}
	// Everything handed downstream before the cancel must have been
	// processed, not abandoned: rows delivered == rows classified.
	if st.Predictions+st.ShedPredictions != st.Rows {
		t.Fatalf("classify dropped work on cancel: rows %d, predictions %d, shed %d",
			st.Rows, st.Predictions, st.ShedPredictions)
	}
	waitGoroutines(t, base)
	cancel()
}

// TestStreamCompletionLeavesNoGoroutines is the leak check for the happy
// path: a run to completion leaves the goroutine count where it started.
func TestStreamCompletionLeavesNoGoroutines(t *testing.T) {
	c := classifier(t)
	res, err := capture.Run(twoUserScenario(t, 37))
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	_, err = stream.Run(context.Background(),
		&stream.ReplaySource{Trace: res.Records, Slice: 500 * time.Millisecond},
		stream.Config{Classifier: c})
	if err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}

// TestStreamShedsUnderBackpressure forces overload — an artificially slow
// assembler behind the fixed-depth queues — and checks the shed contract: records
// are dropped instead of blocking the source, every drop is counted in
// Stats, and the obs counter agrees. Nothing vanishes silently.
func TestStreamShedsUnderBackpressure(t *testing.T) {
	c := classifier(t)
	res, err := capture.Run(twoUserScenario(t, 41))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := stream.Config{
		Classifier: c,
		Shed:       true,
		Metrics:    reg.Scope("stream"),
		// Slow the assemble stage so the source's queue stays full.
		TapWindow: func(stream.Key, time.Duration, []float64) {
			time.Sleep(2 * time.Millisecond)
		},
	}
	st, err := stream.Run(context.Background(),
		&stream.ReplaySource{Trace: res.Records, Slice: 50 * time.Millisecond}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.ShedRecords == 0 {
		t.Fatal("overloaded shed-mode run shed nothing; backpressure path untested")
	}
	// Conservation: every capture record was either delivered or counted
	// as shed, and every delivered row was classified or counted as shed.
	if st.Records+st.ShedRecords != int64(len(res.Records)) {
		t.Fatalf("records leak: %d delivered + %d shed != %d captured",
			st.Records, st.ShedRecords, len(res.Records))
	}
	if st.Predictions+st.ShedPredictions != st.Rows {
		t.Fatalf("rows leak: %d predicted + %d shed != %d rows",
			st.Predictions, st.ShedPredictions, st.Rows)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("stream.source.shed_records"); got != st.ShedRecords {
		t.Fatalf("obs shed_records = %d, Stats says %d", got, st.ShedRecords)
	}
	if got := snap.Counter("stream.source.records"); got != st.Records {
		t.Fatalf("obs records = %d, Stats says %d", got, st.Records)
	}
}
