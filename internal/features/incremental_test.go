package features

import (
	"fmt"
	"testing"
	"time"

	"ltefp/internal/lte/dci"
	"ltefp/internal/sim"
	"ltefp/internal/trace"
)

// Buffered reports how many records the context horizon currently retains.
func (inc *Incremental) Buffered() int { return len(inc.buf) - inc.head }

// randomTrace builds a time-ordered trace with bursty arrivals and
// occasional long silences, the shapes the live pipeline sees.
func randomTrace(rng *sim.RNG, n int) trace.Trace {
	t := make(trace.Trace, 0, n)
	at := time.Duration(rng.IntN(50)) * time.Millisecond
	for len(t) < n {
		switch rng.IntN(10) {
		case 0: // long silence: several windows of nothing
			at += time.Duration(500+rng.IntN(4000)) * time.Millisecond
		case 1, 2: // inter-burst pause
			at += time.Duration(50+rng.IntN(400)) * time.Millisecond
		default: // inside a burst; 0 advances produce same-tick ties
			at += time.Duration(rng.IntN(4)) * time.Millisecond
		}
		dir := dci.Downlink
		if rng.IntN(4) == 0 {
			dir = dci.Uplink
		}
		t = append(t, trace.Record{
			At:    at,
			RNTI:  0x1000,
			Dir:   dir,
			Bytes: 1 + rng.IntN(1500),
		})
	}
	return t
}

// streamRows runs tr through an Incremental one record at a time and
// collects the emitted (start, row) pairs. With advance set, it also calls
// AdvanceTo before every push (the time-sliced source pattern), which must
// not change the output.
func streamRows(tr trace.Trace, width, stride time.Duration, advance bool) (starts []time.Duration, rows [][]float64) {
	inc := NewIncremental(width, stride)
	emit := func(start time.Duration, row []float64) {
		starts = append(starts, start)
		rows = append(rows, append([]float64(nil), row...))
	}
	for _, r := range tr {
		if advance {
			inc.AdvanceTo(r.At, emit)
		}
		inc.Push(r, emit)
	}
	if advance && len(tr) > 0 {
		inc.AdvanceTo(tr[len(tr)-1].At+width+stride, emit)
	}
	inc.Flush(emit)
	return starts, rows
}

// TestIncrementalMatchesFromTrace is the extractor's contract: pushing a
// trace record by record, with or without AdvanceTo between pushes, and
// handing it to FromTrace both yield the oracle's rows bit for bit, in the
// same window order and with the same window starts.
func TestIncrementalMatchesFromTrace(t *testing.T) {
	geoms := []struct{ width, stride time.Duration }{
		{100 * time.Millisecond, 100 * time.Millisecond}, // paper's windows
		{100 * time.Millisecond, 50 * time.Millisecond},  // overlapping
		{50 * time.Millisecond, 150 * time.Millisecond},  // gappy stride > width
		{1 * time.Second, 250 * time.Millisecond},        // wide overlap
		{30 * time.Millisecond, 30 * time.Millisecond},   // sub-slot windows
		{5 * time.Second, 5 * time.Second},               // wider than the 3 s horizon
	}
	rng := sim.NewRNG(42)
	for gi, g := range geoms {
		for rep := 0; rep < 6; rep++ {
			tr := randomTrace(rng, 40+rng.IntN(500))
			name := fmt.Sprintf("geom%d_rep%d", gi, rep)
			wantStarts, wantRows := oracleFromTrace(tr, g.width, g.stride)
			if diff := sameRows(nil, FromTrace(tr, g.width, g.stride), wantStarts, wantRows); diff != "" {
				t.Fatalf("%s FromTrace: %s", name, diff)
			}
			for _, advance := range []bool{false, true} {
				gotStarts, gotRows := streamRows(tr, g.width, g.stride, advance)
				if diff := sameRows(gotStarts, gotRows, wantStarts, wantRows); diff != "" {
					t.Fatalf("%s advance=%v: %s", name, advance, diff)
				}
			}
		}
	}
}

// TestFromTraceMatchesOracle runs FromTrace over a long dense trace, on
// which the extractor reclaims its buffer's evicted prefix many times.
func TestFromTraceMatchesOracle(t *testing.T) {
	tr := randomTrace(sim.NewRNG(9), 20000)
	wantStarts, want := oracleFromTrace(tr, 100*time.Millisecond, 100*time.Millisecond)
	if diff := sameRows(nil, FromTrace(tr, 100*time.Millisecond, 100*time.Millisecond), wantStarts, want); diff != "" {
		t.Fatal(diff)
	}
}

// TestIncrementalEdgeCases covers the degenerate shapes the property test
// may not hit every seed: empty, single record, and a lone pair separated
// by more than the gap cap.
func TestIncrementalEdgeCases(t *testing.T) {
	cases := map[string]trace.Trace{
		"empty":  {},
		"single": {{At: 123 * time.Millisecond, Bytes: 77, Dir: dci.Downlink}},
		"pair_far_apart": {
			{At: 10 * time.Millisecond, Bytes: 5, Dir: dci.Downlink},
			{At: 25 * time.Second, Bytes: 9, Dir: dci.Uplink},
		},
		"same_tick_burst": {
			{At: 40 * time.Millisecond, Bytes: 1, Dir: dci.Downlink},
			{At: 40 * time.Millisecond, Bytes: 2, Dir: dci.Downlink},
			{At: 40 * time.Millisecond, Bytes: 3, Dir: dci.Uplink},
		},
	}
	for name, tr := range cases {
		wantStarts, want := oracleFromTrace(tr, 100*time.Millisecond, 100*time.Millisecond)
		if diff := sameRows(nil, FromTrace(tr, 100*time.Millisecond, 100*time.Millisecond), wantStarts, want); diff != "" {
			t.Fatalf("%s FromTrace: %s", name, diff)
		}
		gotStarts, got := streamRows(tr, 100*time.Millisecond, 100*time.Millisecond, false)
		if diff := sameRows(gotStarts, got, wantStarts, want); diff != "" {
			t.Fatalf("%s streamed: %s", name, diff)
		}
	}
}

// TestIncrementalBoundedBuffer checks the context-horizon eviction: after
// streaming minutes of steady traffic the retained buffer stays a few
// seconds deep instead of growing with the capture.
func TestIncrementalBoundedBuffer(t *testing.T) {
	inc := NewIncremental(100*time.Millisecond, 100*time.Millisecond)
	emit := func(time.Duration, []float64) {}
	perSecond := 50
	for s := 0; s < 120; s++ {
		for k := 0; k < perSecond; k++ {
			at := time.Duration(s)*time.Second + time.Duration(k)*(time.Second/time.Duration(perSecond))
			inc.Push(trace.Record{At: at, Bytes: 100, Dir: dci.Downlink}, emit)
		}
	}
	// 3 s of context at 50 rec/s plus the open window's backlog.
	if max := 4 * perSecond; inc.Buffered() > max {
		t.Fatalf("buffer holds %d records after 120 s of traffic, want <= %d", inc.Buffered(), max)
	}
}

// TestIncrementalOutOfOrder pins the documented drop-and-count behaviour
// for records violating At order.
func TestIncrementalOutOfOrder(t *testing.T) {
	inc := NewIncremental(100*time.Millisecond, 100*time.Millisecond)
	emit := func(time.Duration, []float64) {}
	inc.Push(trace.Record{At: 500 * time.Millisecond, Bytes: 1}, emit)
	inc.Push(trace.Record{At: 200 * time.Millisecond, Bytes: 1}, emit)
	if inc.OutOfOrder != 1 {
		t.Fatalf("OutOfOrder = %d, want 1", inc.OutOfOrder)
	}
}
