package features_test

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"ltefp/internal/features"
	"ltefp/internal/lte/dci"
	"ltefp/internal/sim"
	"ltefp/internal/trace"
)

const ms = time.Millisecond

func TestNamesMatchDims(t *testing.T) {
	if len(features.Names()) != features.TotalDim {
		t.Fatalf("Names() has %d entries, TotalDim = %d", len(features.Names()), features.TotalDim)
	}
	if features.TotalDim != features.Dim+features.ContextDim {
		t.Fatal("dimension constants inconsistent")
	}
}

func TestFromTraceContextFeatures(t *testing.T) {
	// Two bursts separated by 2 s: the second burst's first window must
	// carry the gap in gap_prev_ms and the previous window's stats.
	tr := trace.Trace{
		{At: 10 * ms, Dir: dci.Downlink, Bytes: 500},
		{At: 20 * ms, Dir: dci.Downlink, Bytes: 700},
		{At: 2020 * ms, Dir: dci.Downlink, Bytes: 900},
	}
	vecs := features.FromTrace(tr, 100*ms, 100*ms)
	if len(vecs) != 2 {
		t.Fatalf("%d non-empty windows, want 2", len(vecs))
	}
	first, second := vecs[0], vecs[1]
	if len(first) != features.TotalDim {
		t.Fatalf("vector length %d", len(first))
	}
	gapIdx := features.Dim
	if first[gapIdx] != 10000 {
		t.Fatalf("first window gap_prev = %v, want the 10 s cap", first[gapIdx])
	}
	if second[gapIdx] != 2000 {
		t.Fatalf("second window gap_prev = %v ms, want 2000", second[gapIdx])
	}
	if second[features.Dim+1] != 2 || second[features.Dim+2] != 1200 {
		t.Fatalf("prev-window context = (%v, %v), want (2, 1200)",
			second[features.Dim+1], second[features.Dim+2])
	}
	// Trailing 1 s of the second window holds only its own record.
	if second[features.Dim+3] != 900 || second[features.Dim+4] != 1 {
		t.Fatalf("rate_1s = (%v, %v), want (900, 1)",
			second[features.Dim+3], second[features.Dim+4])
	}
	// Trailing 3 s of the second window sees all three records in two
	// occupied 100 ms slots.
	if second[features.Dim+5] != 2100 {
		t.Fatalf("bytes_3s = %v, want 2100", second[features.Dim+5])
	}
	if math.Abs(second[features.Dim+6]-2.0/30) > 1e-9 {
		t.Fatalf("active_frac_3s = %v, want 2/30", second[features.Dim+6])
	}
}

func TestFromTraceEmptyTrace(t *testing.T) {
	if got := features.FromTrace(nil, 100*ms, 100*ms); len(got) != 0 {
		t.Fatalf("FromTrace(nil) returned %d vectors", len(got))
	}
}

// synthTrace builds a deterministic busy trace spanning roughly n*spacing.
func synthTrace(n int, spacing time.Duration) trace.Trace {
	tr := make(trace.Trace, n)
	for i := 0; i < n; i++ {
		dir := dci.Downlink
		if i%3 == 0 {
			dir = dci.Uplink
		}
		tr[i] = trace.Record{At: time.Duration(i) * spacing, Dir: dir, Bytes: 100 + i%700}
	}
	return tr
}

// TestFromTraceRowsAreDistinct pins the one-backing-array layout: every
// row has exactly TotalDim values and capacity, so appending to one row
// reallocates it instead of overwriting the next, and repeated calls
// return equal, unshared rows.
func TestFromTraceRowsAreDistinct(t *testing.T) {
	tr := synthTrace(5000, 7*ms)
	one := features.FromTrace(tr, 100*ms, 100*ms)
	two := features.FromTrace(tr, 100*ms, 100*ms)
	if len(one) == 0 || len(one) != len(two) {
		t.Fatalf("%d and %d rows", len(one), len(two))
	}
	for i := range one {
		if len(one[i]) != features.TotalDim || cap(one[i]) != features.TotalDim {
			t.Fatalf("row %d: len %d cap %d, want %d", i, len(one[i]), cap(one[i]), features.TotalDim)
		}
		for k := range one[i] {
			if one[i][k] != two[i][k] {
				t.Fatalf("row %d feature %d: %v then %v", i, k, one[i][k], two[i][k])
			}
		}
	}
	next := one[1][0]
	_ = append(one[0], -1)
	if one[1][0] != next {
		t.Fatal("appending to a row overwrote the next one")
	}
	one[0][0] = -1
	if two[0][0] == -1 {
		t.Fatal("two FromTrace calls share rows")
	}
}

// TestFromTraceAllocsIndependentOfRows guards the single backing array: a
// trace ten times longer, at the same density, must not cost more
// allocations (per-row slices would add one per window).
func TestFromTraceAllocsIndependentOfRows(t *testing.T) {
	short, long := synthTrace(1000, 7*ms), synthTrace(10000, 7*ms)
	if n := len(features.FromTrace(long, 100*ms, 100*ms)); n < 10*len(features.FromTrace(short, 100*ms, 100*ms))-10 {
		t.Fatalf("long trace yields only %d rows", n)
	}
	allocs := func(tr trace.Trace) float64 {
		return testing.AllocsPerRun(10, func() { features.FromTrace(tr, 100*ms, 100*ms) })
	}
	a, b := allocs(short), allocs(long)
	if b > a {
		t.Fatalf("FromTrace allocates %v objects for %d records but %v for %d", b, len(long), a, len(short))
	}
}

// TestFromTracePanicsOnBadGeometry pins the geometry contract of both
// entry points: a non-positive width or stride is a programming error.
func TestFromTracePanicsOnBadGeometry(t *testing.T) {
	for _, g := range []struct{ width, stride time.Duration }{
		{0, 100 * ms}, {100 * ms, 0}, {-ms, 100 * ms}, {0, 0},
	} {
		for name, f := range map[string]func(){
			"FromTrace":      func() { features.FromTrace(synthTrace(3, ms), g.width, g.stride) },
			"NewIncremental": func() { features.NewIncremental(g.width, g.stride) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%v, %v) did not panic", name, g.width, g.stride)
					}
				}()
				f()
			}()
		}
	}
}

// TestFromTraceCountsEveryRecordOnce: with stride == width the windows
// tile the span, so the frame counts of the emitted rows add up to the
// trace's length.
func TestFromTraceCountsEveryRecordOnce(t *testing.T) {
	f := func(seed uint64) bool {
		tr := jitterTrace(seed, 300)
		total := 0.0
		for _, row := range features.FromTrace(tr, 100*ms, 100*ms) {
			total += row[0]
		}
		return total == float64(len(tr))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestFromTraceOverlappingWindows: with overlapping windows each row
// counts exactly the records of its half-open span.
func TestFromTraceOverlappingWindows(t *testing.T) {
	tr := jitterTrace(7, 200)
	const width, stride = 200 * ms, 100 * ms
	rows := features.FromTrace(tr, width, stride)
	i := 0
	inc := features.NewIncremental(width, stride)
	emit := func(start time.Duration, row []float64) {
		want := tr.FilterSpan(start, start+width)
		if row[0] != float64(len(want)) || row[0] != rows[i][0] {
			t.Fatalf("window at %v counts %v records, span holds %d, FromTrace row %v", start, row[0], len(want), rows[i][0])
		}
		i++
	}
	for _, r := range tr {
		inc.Push(r, emit)
	}
	inc.Flush(emit)
	if i != len(rows) {
		t.Fatalf("streamed %d windows, FromTrace %d", i, len(rows))
	}
}

// jitterTrace is a time-ordered trace with gaps of up to 50 ms.
func jitterTrace(seed uint64, n int) trace.Trace {
	g := sim.NewRNG(seed)
	tr := make(trace.Trace, n)
	at := time.Duration(0)
	for i := range tr {
		at += time.Duration(g.IntN(50)) * ms
		dir := dci.Downlink
		if g.Bool(0.3) {
			dir = dci.Uplink
		}
		tr[i] = trace.Record{At: at, Dir: dir, Bytes: 1 + g.IntN(4000)}
	}
	return tr
}
