package stream_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"ltefp/internal/capture"
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
// contract: Run returns the context error, the slices already queued are
// processed rather than abandoned, and no goroutine outlives the call.
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
	// Every window extracted before or after the cancel must have been
	// classified, not abandoned: rows tapped == rows counted == rows
	// classified.
	if st.Rows != int64(rows) || st.Predictions != st.Rows {
		t.Fatalf("classify dropped work on cancel: %d rows tapped, %d counted, %d predicted",
			rows, st.Rows, st.Predictions)
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
