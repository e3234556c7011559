package features

import (
	"fmt"
	"math/bits"
	"time"

	"ltefp/internal/trace"
)

// Incremental is the push-based sliding-window feature extractor, and the
// only one: FromTrace pushes a whole trace through it. Records arrive one
// at a time (from a draining sniffer in the live pipeline), and a window's
// row is emitted as soon as the window can no longer receive records (a
// record at or past its end arrives, or Flush is called), instead of after
// the whole capture is on disk.
//
// The extractor retains only the trailing context horizon (the records the
// gap, 1 s rate, and 3 s duty-cycle features still reference — at most 3 s
// behind the next window), so memory stays bounded by traffic rate, not
// capture length. The emitted row slice is scratch owned by the
// Incremental and is only valid during the emit callback; callers that
// retain rows must copy them.
//
// An Incremental is not safe for concurrent use. Records must be pushed in
// non-decreasing At order (the order sniffers drain them); out-of-order
// records are dropped and counted in OutOfOrder, never silently reordered.
type Incremental struct {
	width  time.Duration
	stride time.Duration

	sc  scratch   // per-window aggregate scratch
	row []float64 // emit scratch, TotalDim

	// buf[head:] are the retained records, time-ordered. buf[:head] are
	// evicted; Push reclaims their room before it would grow buf.
	buf     []trace.Record
	head    int
	started bool
	next    time.Duration // start of the next window to finalize
	lastAt  time.Duration // At of the newest accepted record

	// Scan cursors into buf: each is the first record at or after a bound
	// that only grows from one window to the next — the window's start and
	// end, and the 1 s and 3 s horizons behind its end. They are derived
	// from buf and next, so State leaves them out; a restored extractor
	// starts them at zero and they catch up on its first window.
	from, to, lo1, lo3 int

	prevCount, prevBytes float64 // previous emitted window's count/bytes

	// Last record evicted from buf: the gap feature's reference when no
	// retained record precedes the window start.
	hasEvicted bool
	evictedAt  time.Duration

	// OutOfOrder counts records dropped for violating At order.
	OutOfOrder int64
}

// NewIncremental returns an extractor for the given window geometry. It
// panics if width or stride is not positive.
func NewIncremental(width, stride time.Duration) *Incremental {
	if width <= 0 || stride <= 0 {
		panic(fmt.Sprintf("features: invalid window width %v / stride %v", width, stride))
	}
	return &Incremental{
		width:  width,
		stride: stride,
		row:    make([]float64, TotalDim),
	}
}

// IncrementalState is the complete restorable state of an Incremental:
// everything Push/AdvanceTo/Flush read or write apart from reusable
// scratch. It exists for the streaming pipeline's checkpoints — an
// extractor rebuilt from it continues emitting rows bit-identical to the
// one it was captured from.
type IncrementalState struct {
	Width, Stride        time.Duration
	Buf                  []trace.Record
	Started              bool
	Next, LastAt         time.Duration
	PrevCount, PrevBytes float64
	HasEvicted           bool
	EvictedAt            time.Duration
	OutOfOrder           int64
}

// State captures the extractor's restorable state. The returned record
// slice is a copy: it stays valid while the extractor keeps running.
func (inc *Incremental) State() IncrementalState {
	return IncrementalState{
		Width:      inc.width,
		Stride:     inc.stride,
		Buf:        append([]trace.Record(nil), inc.buf[inc.head:]...),
		Started:    inc.started,
		Next:       inc.next,
		LastAt:     inc.lastAt,
		PrevCount:  inc.prevCount,
		PrevBytes:  inc.prevBytes,
		HasEvicted: inc.hasEvicted,
		EvictedAt:  inc.evictedAt,
		OutOfOrder: inc.OutOfOrder,
	}
}

// RestoreIncremental rebuilds an extractor from captured state. The
// record slice is copied, so the state remains reusable. A state no
// extractor can reach is rejected rather than left to yield wrong rows:
// a bad geometry, a last push past the open window, records out of time
// order, records after LastAt or before the last evicted one, or records
// in an extractor that never started.
func RestoreIncremental(st IncrementalState) (*Incremental, error) {
	if st.Width <= 0 || st.Stride <= 0 {
		return nil, fmt.Errorf("features: restoring incremental: invalid window width %v / stride %v", st.Width, st.Stride)
	}
	// Push and AdvanceTo close every window that ends at or before the
	// last push, so it always falls before the open window's end. The
	// difference is taken unsigned: it is exact whenever LastAt >= Next.
	if st.Started && st.LastAt >= st.Next && uint64(st.LastAt-st.Next) >= uint64(st.Width) {
		return nil, fmt.Errorf("features: restoring incremental: last push at %v is past the open window [%v, +%v)", st.LastAt, st.Next, st.Width)
	}
	if n := len(st.Buf); n > 0 {
		if !st.Started {
			return nil, fmt.Errorf("features: restoring incremental: %d records buffered before the first push", n)
		}
		if st.Buf[n-1].At > st.LastAt {
			return nil, fmt.Errorf("features: restoring incremental: buffered record at %v is after the last push at %v", st.Buf[n-1].At, st.LastAt)
		}
		if st.HasEvicted && st.Buf[0].At < st.EvictedAt {
			return nil, fmt.Errorf("features: restoring incremental: buffered record at %v precedes the evicted one at %v", st.Buf[0].At, st.EvictedAt)
		}
		for i := 1; i < n; i++ {
			if st.Buf[i].At < st.Buf[i-1].At {
				return nil, fmt.Errorf("features: restoring incremental: buffered records out of time order at %d", i)
			}
		}
	}
	inc := NewIncremental(st.Width, st.Stride)
	inc.buf = append(inc.buf, st.Buf...)
	inc.started = st.Started
	inc.next = st.Next
	inc.lastAt = st.LastAt
	inc.prevCount = st.PrevCount
	inc.prevBytes = st.PrevBytes
	inc.hasEvicted = st.HasEvicted
	inc.evictedAt = st.EvictedAt
	inc.OutOfOrder = st.OutOfOrder
	return inc, nil
}

// Push feeds one record, emitting every window the record proves complete
// (all windows ending at or before r.At). emit receives the window start
// and the TotalDim feature row; the row is scratch reused by the next
// emission.
func (inc *Incremental) Push(r trace.Record, emit func(start time.Duration, row []float64)) {
	if inc.started && r.At < inc.lastAt {
		inc.OutOfOrder++
		return
	}
	if !inc.started {
		inc.started = true
		inc.next = r.At - r.At%inc.stride
	}
	// A window [next, next+width) can still gain records until one arrives
	// at or past its end; r proves every earlier window complete.
	for inc.next+inc.width <= r.At {
		inc.finalize(emit)
	}
	// Reclaim the evicted prefix before growing the buffer, once it is at
	// least a quarter of it: each record is then copied at most three more
	// times on average, and the buffer stays within a small factor of the
	// retained horizon.
	if h := inc.head; len(inc.buf) == cap(inc.buf) && h > 0 && 4*h >= len(inc.buf) {
		inc.buf = inc.buf[:copy(inc.buf, inc.buf[h:])]
		inc.head = 0
		inc.from, inc.to = inc.from-h, inc.to-h
		inc.lo1, inc.lo3 = inc.lo1-h, inc.lo3-h
	}
	inc.buf = append(inc.buf, r)
	inc.lastAt = r.At
}

// AdvanceTo emits every window ending at or before now. It is only sound
// when the caller guarantees all records with At < now have been pushed —
// the invariant a time-sliced source provides after draining a slice — in
// which case the emitted rows are identical to the ones a later Push or
// Flush would have produced. Windows the extractor skips past are
// record-free and would never have emitted.
func (inc *Incremental) AdvanceTo(now time.Duration, emit func(start time.Duration, row []float64)) {
	if !inc.started {
		return
	}
	for inc.next+inc.width <= now {
		inc.finalize(emit)
	}
}

// Flush emits every remaining window through the one containing the last
// record (the last window starting at or before the newest record's At).
// The extractor keeps accepting pushes afterwards, but records older than
// the already-emitted windows count as out-of-order.
func (inc *Incremental) Flush(emit func(start time.Duration, row []float64)) {
	if !inc.started {
		return
	}
	for inc.next <= inc.lastAt {
		inc.finalize(emit)
	}
}

// finalize extracts the window starting at inc.next (emitting only if it
// holds records), advances to the following window, and evicts records the
// remaining windows can no longer reference.
func (inc *Incremental) finalize(emit func(start time.Duration, row []float64)) {
	start := inc.next
	end := start + inc.width
	buf := inc.buf
	inc.from = seek(buf, inc.from, start)
	inc.to = seek(buf, inc.to, end)
	inc.lo1 = seek(buf, inc.lo1, end-time.Second)
	inc.lo3 = seek(buf, inc.lo3, end-3*time.Second)
	if i, j := inc.from, inc.to; j > i {
		v := inc.row
		for k := range v {
			v[k] = 0
		}
		inc.sc.window(v[:Dim], start, buf[i:j], inc.width)

		// Gap to the last record before the window start: a retained
		// predecessor if one survives, else the last evicted record.
		gap := float64(gapCapMilliseconds)
		prevAt := inc.evictedAt
		havePrev := inc.hasEvicted
		if i > inc.head {
			prevAt = buf[i-1].At
			havePrev = true
		}
		if havePrev {
			g := float64((buf[i].At - prevAt).Microseconds()) / 1000
			if g < gap {
				gap = g
			}
		}
		v[Dim] = gap
		v[Dim+1] = inc.prevCount
		v[Dim+2] = inc.prevBytes

		// Trailing 1 s rate, and the trailing 3 s duty cycle: byte volume
		// plus the fraction of 100 ms slots carrying any traffic. Duty
		// cycle separates burst-and-idle delivery (Netflix-style) from
		// near-continuous delivery (YouTube-style) robustly across channel
		// conditions. The horizon spans at most 31 distinct 100 ms slots,
		// so one uint64 bitset relative to the horizon's first slot holds
		// them. One pass serves both horizons: the 3 s horizon's records
		// before the 1 s horizon, then the 1 s horizon's.
		var rb, b3 float64
		var slotBits uint64
		slotBase := (end - 3*time.Second) / (100 * time.Millisecond)
		if slotBase < 0 {
			slotBase = 0
		}
		for _, r := range buf[inc.lo3:inc.lo1] {
			b3 += float64(r.Bytes)
			slotBits |= 1 << uint(r.At/(100*time.Millisecond)-slotBase)
		}
		for _, r := range buf[inc.lo1:j] {
			b := float64(r.Bytes)
			rb += b
			b3 += b
			slotBits |= 1 << uint(r.At/(100*time.Millisecond)-slotBase)
		}
		v[Dim+3] = rb
		v[Dim+4] = float64(j - inc.lo1)
		v[Dim+5] = b3
		v[Dim+6] = float64(bits.OnesCount64(slotBits)) / 30

		emit(start, v)

		inc.prevCount = v[0]
		inc.prevBytes = v[3]
	}
	inc.next = start + inc.stride

	// Evict records no future window references: the next window needs its
	// 3 s context horizon and, for the gap feature, at most one record
	// before its start (tracked in evictedAt). Records before both this
	// window's start and its 3 s horizon are behind that bound already, so
	// the scan starts past them; the cursors skip what it evicts.
	evictBefore := min(inc.next, inc.next+inc.width-3*time.Second)
	if h := seek(buf, max(inc.head, min(inc.from, inc.lo3)), evictBefore); h > inc.head {
		inc.evictedAt = buf[h-1].At
		inc.hasEvicted = true
		inc.head = h
		inc.from, inc.to = max(inc.from, h), max(inc.to, h)
		inc.lo1, inc.lo3 = max(inc.lo1, h), max(inc.lo3, h)
	}
}

// seek advances cursor k past every record of buf before bound.
func seek(buf []trace.Record, k int, bound time.Duration) int {
	for k < len(buf) && buf[k].At < bound {
		k++
	}
	return k
}
