package capture_test

import (
	"sort"
	"testing"
	"time"

	"ltefp/internal/capture"
	"ltefp/internal/trace"
)

// sortAllFields gives a canonical order for multiset comparison: the live
// drain interleaves cells/RNTIs differently from the batch path's global
// time sort, but the record multiset must match exactly.
func sortAllFields(tr trace.Trace) {
	sort.Slice(tr, func(i, j int) bool {
		a, b := tr[i], tr[j]
		switch {
		case a.At != b.At:
			return a.At < b.At
		case a.CellID != b.CellID:
			return a.CellID < b.CellID
		case a.RNTI != b.RNTI:
			return a.RNTI < b.RNTI
		case a.Dir != b.Dir:
			return a.Dir < b.Dir
		default:
			return a.Bytes < b.Bytes
		}
	})
}

// TestLiveMatchesRun is the live capture's contract: stepping the same
// scenario in slices and draining incrementally yields exactly the records
// the batch Run validates, with the same health counters.
func TestLiveMatchesRun(t *testing.T) {
	sc := labScenario(t, 3)
	sc.Sniffer.CorruptProb = 0.05 // exercise the plausibility hold-back

	batch, err := capture.Run(sc)
	if err != nil {
		t.Fatal(err)
	}

	live, err := capture.NewLive(sc)
	if err != nil {
		t.Fatal(err)
	}
	var got trace.Trace
	steps := 0
	for {
		var more bool
		got, _, more = live.Step(got, 250*time.Millisecond)
		steps++
		if !more {
			break
		}
	}
	live.Close()

	if steps < 10 {
		t.Fatalf("scenario finished in %d steps; slicing untested", steps)
	}
	if len(got) != len(batch.Records) {
		t.Fatalf("live drained %d records, batch validated %d", len(got), len(batch.Records))
	}
	want := append(trace.Trace(nil), batch.Records...)
	sortAllFields(got)
	sortAllFields(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: live %+v, batch %+v", i, got[i], want[i])
		}
	}
	if lh, bh := live.Health(), batch.Health; lh != bh {
		t.Fatalf("health diverged:\nlive  %+v\nbatch %+v", lh, bh)
	}
}

// TestLiveStepBounds pins the stepper's bookkeeping: clamped end, monotone
// now, and inert behaviour after Close.
func TestLiveStepBounds(t *testing.T) {
	sc := labScenario(t, 4)
	live, err := capture.NewLive(sc)
	if err != nil {
		t.Fatal(err)
	}
	if live.Now() != 0 || live.End() <= time.Second {
		t.Fatalf("fresh stepper at %v, scenario end %v", live.Now(), live.End())
	}
	_, now, more := live.Step(nil, time.Second)
	if now != time.Second || !more || live.Now() != now {
		t.Fatalf("first step ended at %v (now %v, more=%v)", now, live.Now(), more)
	}
	// A slice far past the end clamps.
	_, now, more = live.Step(nil, time.Hour)
	if now != live.End() || more {
		t.Fatalf("oversized step ended at %v (end %v, more=%v)", now, live.End(), more)
	}
	live.Close()
	if got, now2, more := live.Step(nil, time.Second); got != nil || now2 != now || more {
		t.Fatal("closed stepper still stepped")
	}
	if live.Close() != 0 {
		t.Fatal("second Close flushed again")
	}
}

func TestNewLiveRejectsEmptyScenario(t *testing.T) {
	if _, err := capture.NewLive(capture.Scenario{}); err == nil {
		t.Fatal("scenario without cells accepted")
	}
}
