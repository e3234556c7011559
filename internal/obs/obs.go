// Package obs is the pipeline's observability substrate: a zero-dependency,
// concurrency-safe metrics registry holding counters, gauges, and
// fixed-bucket histograms, plus a Scope type for cheap hierarchical
// labelling (per cell, per pipeline stage, per run).
//
// The design goal is that instrumentation can stay compiled into every hot
// path of the attack pipeline — the sniffer's blind-decode loop, the eNB's
// per-TTI scheduler, batched forest inference — at a cost that is either
// zero (disabled) or a handful of atomic adds (enabled):
//
//   - Every metric method is nil-safe. A nil *Counter, *Gauge, or
//     *Histogram is a no-op, and the zero Scope hands out nil metrics, so
//     library code caches its metric pointers once and never branches on
//     an "enabled" flag.
//   - Metric updates are lock-free (atomic counters, preallocated
//     histogram buckets); the registry lock is taken only at registration
//     and snapshot time, never on the update path.
//   - Nothing allocates after registration: Observe, Add, Inc, and Set
//     touch only preallocated atomics.
//
// The paper's real-world F-score drop versus the lab traces back to
// capture loss and operator scheduling (its §VII-B discussion), and
// FALCON-lineage PDCCH tools ship decode-health counters for exactly this
// reason: a fingerprinting result is only interpretable next to the
// decode-health numbers of the capture that produced it. This package is
// how the repository records those numbers.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil *Counter is a no-op, which is how disabled instrumentation
// stays free.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (which should be non-negative; Add does not check).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down (queue depths, pool
// occupancy). A nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores an absolute value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current level (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets defined by their
// inclusive upper bounds, with an implicit +Inf overflow bucket, and
// tracks the running count and sum. Buckets are allocated once at
// registration; Observe performs a short search plus two atomic adds and
// one atomic float accumulate — no locks, no allocation. A nil *Histogram
// is a no-op.
type Histogram struct {
	bounds []float64      // sorted inclusive upper bounds
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomicFloat
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket lists are short (≤ ~20) and the common case hits
	// an early bucket, which beats binary search's mispredictions.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.load()
}

// Reset zeroes the histogram in place.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.store(0)
}

// Timer measures one interval into a latency histogram. Obtain one from
// Histogram.Start; the zero Timer (from a nil histogram) is a no-op and
// never reads the clock, so disabled timing costs nothing.
type Timer struct {
	h     *Histogram
	start time.Time
}

// Start returns a running Timer, or a no-op Timer for a nil histogram.
func (h *Histogram) Start() Timer {
	if h == nil {
		return Timer{}
	}
	return Timer{h: h, start: time.Now()}
}

// Stop records the elapsed time in milliseconds and returns it. Stopping a
// no-op Timer returns 0 without touching the clock.
func (t Timer) Stop() time.Duration {
	if t.h == nil {
		return 0
	}
	d := time.Since(t.start)
	t.h.Observe(float64(d) / float64(time.Millisecond))
	return d
}

// atomicFloat is a float64 accumulated by compare-and-swap on its bits.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }

// LatencyBuckets are the default duration buckets, in milliseconds, used
// by the pipeline's latency histograms: 50 µs to 10 s, roughly 2.5× apart.
func LatencyBuckets() []float64 {
	return []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}
}

// FractionBuckets are the default buckets for ratios in [0, 1] (PRB
// utilisation, duty cycles): steps of 0.1.
func FractionBuckets() []float64 {
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
}

// Registry owns a flat namespace of metrics. Metric handles are created on
// first use and cached by callers; the registry lock guards only the name
// maps, never the update path. A nil *Registry hands out nil metrics
// everywhere, so "no registry" and "registry off" are the same cheap case.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	names      map[nameKey]string // interned "prefix.name" joins
}

// nameKey identifies one scoped-name join.
type nameKey struct {
	prefix, name string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		names:      make(map[nameKey]string),
	}
}

// joinName returns prefix + "." + name, interning the result so repeated
// scoped lookups (instrumentation re-attached per capture run) stop
// allocating after the first join.
func (r *Registry) joinName(prefix, name string) string {
	if prefix == "" {
		return name
	}
	if r == nil {
		return prefix + "." + name
	}
	k := nameKey{prefix: prefix, name: name}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names == nil {
		r.names = make(map[nameKey]string)
	}
	if s, ok := r.names[k]; ok {
		return s
	}
	s := prefix + "." + name
	r.names[k] = s
	return s
}

// Counter returns the named counter, creating it if needed (nil for a nil
// registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed (nil for a nil
// registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds if needed (nil for a nil registry). Bounds are sorted and
// deduplicated; for an existing histogram the bounds argument is ignored.
// Empty bounds default to LatencyBuckets.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		if len(bounds) == 0 {
			bounds = LatencyBuckets()
		}
		b := make([]float64, len(bounds))
		copy(b, bounds)
		sort.Float64s(b)
		n := 0
		for i, v := range b {
			if i == 0 || v != b[n-1] {
				b[n] = v
				n++
			}
		}
		b = b[:n]
		h = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
		r.histograms[name] = h
	}
	return h
}

// Scope returns a labelling scope rooted at prefix. Works on a nil
// registry (the returned Scope is disabled).
func (r *Registry) Scope(prefix string) Scope {
	return Scope{r: r, prefix: prefix}
}

// Reset zeroes every registered metric in place, keeping registrations
// (and the pointers instrumented code has cached) intact. Used between
// experiment runs to attribute metrics per run.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.histograms {
		h.Reset()
	}
}

// Scope names a subtree of a registry's metric namespace: scope "cell1"
// hands out metrics named "cell1.<name>", and scopes nest
// ("cell1.sniffer.<name>"). Scope is a two-word value; deriving and
// passing scopes costs nothing beyond the strings themselves. The zero
// Scope is disabled and hands out nil (no-op) metrics.
type Scope struct {
	r      *Registry
	prefix string
}

// Enabled reports whether the scope is backed by a live registry.
func (s Scope) Enabled() bool { return s.r != nil }

// Registry returns the backing registry (nil for a disabled scope).
func (s Scope) Registry() *Registry { return s.r }

// Scope derives a child scope.
func (s Scope) Scope(name string) Scope {
	if s.r == nil {
		return Scope{}
	}
	return Scope{r: s.r, prefix: s.join(name)}
}

// Counter returns the scoped counter (nil when disabled).
func (s Scope) Counter(name string) *Counter { return s.r.Counter(s.join(name)) }

// Gauge returns the scoped gauge (nil when disabled).
func (s Scope) Gauge(name string) *Gauge { return s.r.Gauge(s.join(name)) }

// Histogram returns the scoped histogram (nil when disabled).
func (s Scope) Histogram(name string, bounds []float64) *Histogram {
	return s.r.Histogram(s.join(name), bounds)
}

func (s Scope) join(name string) string {
	return s.r.joinName(s.prefix, name)
}
