package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"sync"
	"time"
)

// span is one timed call into a layer's public entry point, recorded by a
// traced replay. Spans of one op share Op; Parent links a call to the call
// it was made from (-1 for the op itself).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Alloc is the heap bytes allocated process-wide while the span was
	// open, from runtime/metrics.
	Alloc uint64 `json:"alloc_bytes"`
	// Est marks a span whose duration is scaled up from sampled timings;
	// it carries no allocation figure.
	Est bool `json:"est,omitempty"`
	// Async marks a span that ran on another goroutine while its parent
	// was open. It is not subtracted from the parent's self time.
	Async bool `json:"async,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records the spans and counts of a traced replay. begin and end
// follow call nesting on whichever goroutine the replay is running on at
// the time; async records work done concurrently on another goroutine.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	op     int
	spans  []span
	stack  []int
	counts map[string]float64
	alloc  []metrics.Sample
	// clockBias is what an empty timed region reads: the cost of the
	// clock reads themselves, subtracted from fine-grained samples.
	clockBias time.Duration
}

func newTracer() *tracer {
	return &tracer{
		t0:        time.Now(),
		counts:    make(map[string]float64),
		alloc:     []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
		clockBias: emptyRegion(),
	}
}

// emptyRegion returns the median duration time.Since reports for a
// region with nothing in it.
func emptyRegion() time.Duration {
	ds := make([]float64, 1<<14)
	for i := range ds {
		t0 := time.Now()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// heapAlloc reads the cumulative heap allocation. Callers hold mu.
func (t *tracer) heapAlloc() uint64 {
	metrics.Read(t.alloc)
	return t.alloc[0].Value.Uint64()
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(layer, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Layer: layer, Name: name, Alloc: t.heapAlloc()})
	t.stack = append(t.stack, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if top := t.stack[len(t.stack)-1]; top != id {
		panic("ltebench: span closed out of order")
	}
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[id]
	s.End = now
	s.Alloc = t.heapAlloc() - s.Alloc
}

// estimate records a child of the open span parent whose duration d was
// extrapolated from sampled timings rather than measured end to end.
func (t *tracer) estimate(parent int, layer, name string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.spans[parent].Start
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: t.op, Layer: layer, Name: name,
		Start: start, End: start + int64(d), Est: true})
}

// async records work that ran on another goroutine between start and end
// while span parent was open.
func (t *tracer) async(parent int, layer, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: t.op, Layer: layer, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Async: true})
}

// count adds v to a named work counter.
func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// beginOp opens the root span of op i.
func (t *tracer) beginOp(i int) int {
	t.mu.Lock()
	t.op = i
	t.mu.Unlock()
	return t.begin("op", "op")
}

// totals is a replay's time and bytes by layer and by span name.
type totals struct {
	self      map[string]time.Duration // self time by layer
	selfAlloc map[string]int64         // self allocation by layer
	byName    map[string]time.Duration // inclusive time by span name
	opWall    time.Duration            // summed op durations
	opSelf    time.Duration            // op time no layer span covers
}

// sum computes self times: a span's duration minus the part of it its
// synchronous children cover. Allocation is attributed the same way.
func (t *tracer) sum() totals {
	t.mu.Lock()
	defer t.mu.Unlock()
	childDur := make([]time.Duration, len(t.spans))
	childAlloc := make([]int64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent >= 0 && !s.Async {
			childDur[s.Parent] += s.dur()
			childAlloc[s.Parent] += int64(s.Alloc)
		}
	}
	out := totals{
		self:      make(map[string]time.Duration),
		selfAlloc: make(map[string]int64),
		byName:    make(map[string]time.Duration),
	}
	for i := range t.spans {
		s := &t.spans[i]
		out.byName[s.Name] += s.dur()
		if s.Async {
			continue
		}
		self := s.dur() - childDur[i]
		if s.Parent < 0 {
			out.opWall += s.dur()
			out.opSelf += self
			continue
		}
		out.self[s.Layer] += self
		out.selfAlloc[s.Layer] += int64(s.Alloc) - childAlloc[i]
	}
	return out
}

// opCoverage returns, for the op whose root span is id, the share of its
// wall time that layer spans cover.
func (t *tracer) opCoverage(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	root := t.spans[id]
	var covered time.Duration
	for i := id + 1; i < len(t.spans); i++ {
		if s := &t.spans[i]; s.Parent == id && !s.Async {
			covered += s.dur()
		}
	}
	if root.dur() <= 0 {
		return 0
	}
	return float64(covered) / float64(root.dur())
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
