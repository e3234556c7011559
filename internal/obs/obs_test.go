package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(1)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram has observations")
	}
	if d := h.Start().Stop(); d != 0 {
		t.Error("nil-histogram timer measured time")
	}

	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", nil) != nil {
		t.Error("nil registry handed out live metrics")
	}
	r.Reset()
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Error("nil registry snapshot non-empty")
	}

	var sc Scope // zero scope: disabled
	if sc.Enabled() {
		t.Error("zero scope claims enabled")
	}
	sc.Counter("x").Inc()
	sc.Gauge("x").Set(1)
	sc.Histogram("x", nil).Observe(1)
	if sc.Scope("child").Enabled() {
		t.Error("child of zero scope claims enabled")
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Errorf("counter = %d, want 10", c.Value())
	}
	if r.Counter("reqs") != c {
		t.Error("counter not interned by name")
	}

	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Errorf("gauge = %d, want 5", g.Value())
	}

	h := r.Histogram("lat", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 106 {
		t.Errorf("sum = %g, want 106", h.Sum())
	}
	snap, ok := r.Snapshot().Histogram("lat")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	// Buckets: ≤1: {0.5, 1}, ≤2: {1.5}, ≤4: {3}, +Inf: {100}.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if snap.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, snap.Counts[i], w)
		}
	}
	if m := snap.Mean(); m != 106.0/5 {
		t.Errorf("mean = %g", m)
	}
	if q := snap.Quantile(0.99); q > 4 {
		t.Errorf("q99 = %g escapes the last bound", q)
	}

	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("reset left observations behind")
	}
}

func TestHistogramBoundsSortedDeduped(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{4, 1, 4, 2})
	h.Observe(3)
	snap, _ := r.Snapshot().Histogram("h")
	if len(snap.Bounds) != 3 || snap.Bounds[0] != 1 || snap.Bounds[1] != 2 || snap.Bounds[2] != 4 {
		t.Errorf("bounds = %v, want [1 2 4]", snap.Bounds)
	}
	if snap.Counts[2] != 1 {
		t.Errorf("observation landed in %v", snap.Counts)
	}
}

func TestScopeNaming(t *testing.T) {
	r := NewRegistry()
	cell := r.Scope("cell1")
	cell.Scope("sniffer").Counter("lost").Add(3)
	snap := r.Snapshot()
	if got := snap.Counter("cell1.sniffer.lost"); got != 3 {
		t.Errorf("scoped counter = %d, want 3 (snapshot: %+v)", got, snap.Counters)
	}
	if !cell.Enabled() || cell.Registry() != r {
		t.Error("scope lost its registry")
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(4)
	g := r.Gauge("g")
	g.Set(2)
	h := r.Histogram("h", []float64{1})
	h.Observe(0.5)
	r.Reset()
	// The same cached pointers must observe the reset and stay usable.
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Errorf("reset missed a metric: c=%d g=%d h=%d", c.Value(), g.Value(), h.Count())
	}
	c.Inc()
	if r.Snapshot().Counter("c") != 1 {
		t.Error("counter unusable after reset")
	}
}

// TestConcurrentUpdates hammers one registry from many goroutines; run
// under -race this is the concurrency-safety proof for the whole package.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := r.Scope("cell1")
			c := sc.Counter("n")
			h := sc.Histogram("v", []float64{1, 10, 100})
			g := sc.Gauge("depth")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(i % 128))
				g.Add(1)
				g.Add(-1)
				if i%512 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	if got := snap.Counter("cell1.n"); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	h, _ := snap.Histogram("cell1.v")
	if h.Count != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", h.Count, workers*perWorker)
	}
	var inBuckets int64
	for _, c := range h.Counts {
		inBuckets += c
	}
	if inBuckets != h.Count {
		t.Errorf("bucket sum %d != count %d", inBuckets, h.Count)
	}
}

func TestWriteTextAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.Gauge("depth").Set(3)
	r.Histogram("lat_ms", []float64{1, 10}).Observe(0.4)

	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	for _, want := range []string{"counter   a.count 1", "counter   b.count 2", "gauge     depth 3", "histogram lat_ms count=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("text dump missing %q:\n%s", want, out)
		}
	}
	// Sorted: a.count before b.count.
	if strings.Index(out, "a.count") > strings.Index(out, "b.count") {
		t.Error("text dump not sorted by name")
	}

	var buf bytes.Buffer
	if err := r.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("JSON dump not parseable: %v", err)
	}
	if decoded.Counter("b.count") != 2 || decoded.Gauge("depth") != 3 {
		t.Errorf("JSON round-trip lost values: %+v", decoded)
	}
}

func TestTimerObservesMilliseconds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t", []float64{1000})
	timer := h.Start()
	time.Sleep(2 * time.Millisecond)
	d := timer.Stop()
	if d < 2*time.Millisecond {
		t.Errorf("timer measured %v", d)
	}
	if h.Count() != 1 {
		t.Fatal("timer did not observe")
	}
	if s := h.Sum(); s < 1 || s > 1000 {
		t.Errorf("timer observed %g, want a millisecond-scale value", s)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var empty HistogramValue
	if empty.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile non-zero")
	}
	h := HistogramValue{Count: 4, Bounds: []float64{10, 20}, Counts: []int64{4, 0, 0}}
	if q := h.Quantile(0.5); q <= 0 || q > 10 {
		t.Errorf("q50 = %g, want within (0, 10]", q)
	}
	over := HistogramValue{Count: 1, Bounds: []float64{10}, Counts: []int64{0, 1}}
	if q := over.Quantile(0.99); q != 10 {
		t.Errorf("overflow quantile = %g, want clamp to 10", q)
	}
}

// TestScopedLookupAllocationFree guards the interned-name join: once a
// scoped metric has been looked up, re-attaching instrumentation (as every
// capture run does through SetMetrics / newSnifferMetrics) must not
// allocate — neither for the joined name nor for the metric handle.
func TestScopedLookupAllocationFree(t *testing.T) {
	reg := NewRegistry()
	cell := reg.Scope("pipeline").Scope("cell1")
	sn := cell.Scope("sniffer")
	bounds := FractionBuckets()
	warm := func() {
		_ = sn.Counter("candidates")
		_ = sn.Counter("records")
		_ = cell.Scope("enb").Histogram("prb_util_dl", bounds)
		_ = cell.Scope("enb").Gauge("queue_depth_bytes")
	}
	warm()
	if allocs := testing.AllocsPerRun(100, warm); allocs != 0 {
		t.Fatalf("warmed scoped metric lookup allocates %v objects/run, want 0", allocs)
	}
}
