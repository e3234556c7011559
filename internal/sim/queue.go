package sim

import (
	"math/bits"
	"time"
)

// Firer is a prebuilt event payload: Fire is invoked when the event is
// due. Pushing a Firer instead of a closure lets callers that schedule
// large batches of events (one per application arrival) preallocate the
// payloads in one slice and avoid a per-event closure allocation.
type Firer interface {
	Fire()
}

// funcFirer adapts a closure to Firer. A func value is a single pointer,
// so converting it to the interface does not allocate.
type funcFirer func()

func (f funcFirer) Fire() { f() }

const (
	// slotBits sizes the fine level: one list per TTI slot of the current
	// window of 1<<slotBits slots (1.024 s).
	slotBits = 10
	slots    = 1 << slotBits
	// windows is the coarse level: one list per window after the current
	// one, so the calendar spans 1024 windows (about 17.5 minutes) ahead.
	windows = 1 << 10
)

// node is a calendar event in the queue's slab. next links it into a slot
// or window list as a 1-based slab index; 0 ends the list.
type node struct {
	at   time.Duration
	f    Firer
	next int32
}

// list is an intrusive singly linked list of slab nodes.
type list struct{ head, tail int32 }

// bitmap marks the busy lists of one calendar level; both levels have
// 1024 lists.
type bitmap [slots / 64]uint64

func (b *bitmap) set(i int)   { b[i>>6] |= 1 << (i & 63) }
func (b *bitmap) clear(i int) { b[i>>6] &^= 1 << (i & 63) }

// next returns the first busy index at or after i, wrapping past the end;
// the bitmap must have a busy index.
func (b *bitmap) next(i int) int {
	w := i >> 6
	if word := b[w] >> (i & 63); word != 0 {
		return i + bits.TrailingZeros64(word)
	}
	for k := 1; k <= len(b); k++ {
		w := (w + k) % len(b)
		if b[w] != 0 {
			return w<<6 + bits.TrailingZeros64(b[w])
		}
	}
	panic("sim: next on an empty bitmap")
}

// calendar holds the queue's slot tables.
type calendar struct {
	fine       [slots]list // fine[s % slots]: the events of slot s, in (At, seq) order
	fineBusy   bitmap
	coarse     [windows]list // coarse[w % windows]: the events of window w, in push order
	coarseMin  [windows]time.Duration
	coarseBusy bitmap
}

// Queue is a time-ordered event queue. PopDue fires events in (At, seq)
// order, where seq is push order: events scheduled for the same instant
// fire in the order they were pushed, which keeps the simulation
// deterministic. The zero value is ready to use.
//
// The queue is a two-level calendar keyed by TTI slot. An event lives in
// slot ceil(At/TTI), the subframe edge at which a per-TTI PopDue fires it.
// Slots of the current 1024-slot window each hold a list kept in (At, seq)
// order, found through an occupancy bitmap; each of the next 1024 windows
// holds a push-order list that is distributed into the slots when its
// window starts. Events past that horizon wait in a binary heap. An event
// pushed for a slot already passed joins the current slot, ahead of every
// later event. Push and PopDue cost O(1) for the per-TTI control events
// and session arrivals the simulator schedules, and allocate nothing once
// the node slab has grown to the peak number of pending events.
type Queue struct {
	nodes []node // slab; nodes[0] is unused so that index 0 can end a list
	free  int32  // head of the free-node list
	cal   *calendar

	cur     int64 // current slot: every calendar event is in slot cur or later
	fineN   int   // events in the current window's slots
	coarseN int   // events in later windows' lists
	far     eventHeap
	min     time.Duration // earliest pending At, when the queue is not empty
}

// slotOf returns ceil(at/TTI).
func slotOf(at time.Duration) int64 {
	s := int64(at / TTI)
	if at > 0 && at%TTI != 0 {
		s++
	}
	return s
}

// Push schedules a closure event.
func (q *Queue) Push(at time.Duration, fire func()) {
	q.PushFirer(at, funcFirer(fire))
}

// PushFirer schedules a prebuilt event payload.
func (q *Queue) PushFirer(at time.Duration, f Firer) {
	if q.Len() == 0 || at < q.min {
		q.min = at
	}
	if q.cal == nil {
		q.cal = new(calendar)
		q.nodes = make([]node, 1, 64)
	}
	s := max(slotOf(at), q.cur)
	switch w := s>>slotBits - q.cur>>slotBits; {
	case w == 0:
		q.insertFine(s, q.alloc(at, f))
	case w <= windows:
		q.appendCoarse(s>>slotBits, q.alloc(at, f))
	default:
		q.far.push(at, f)
	}
}

func (q *Queue) alloc(at time.Duration, f Firer) int32 {
	if i := q.free; i != 0 {
		q.free = q.nodes[i].next
		q.nodes[i] = node{at: at, f: f}
		return i
	}
	q.nodes = append(q.nodes, node{at: at, f: f})
	return int32(len(q.nodes) - 1)
}

// insertFine links node i into slot s of the current window. Node i is
// newer than every node already there, so it goes after all events due at
// or before its time: at the tail when it is in order, which is the common
// case, otherwise ahead of the first later event.
func (q *Queue) insertFine(s int64, i int32) {
	q.fineN++
	k := int(s & (slots - 1))
	l := &q.cal.fine[k]
	if l.head == 0 {
		*l = list{i, i}
		q.cal.fineBusy.set(k)
		return
	}
	at := q.nodes[i].at
	switch {
	case q.nodes[l.tail].at <= at:
		q.nodes[l.tail].next = i
		l.tail = i
	case q.nodes[l.head].at > at:
		q.nodes[i].next = l.head
		l.head = i
	default:
		p := l.head
		for q.nodes[q.nodes[p].next].at <= at {
			p = q.nodes[p].next
		}
		q.nodes[i].next = q.nodes[p].next
		q.nodes[p].next = i
	}
}

// appendCoarse links node i at the tail of window w's list.
func (q *Queue) appendCoarse(w int64, i int32) {
	q.coarseN++
	k := int(w & (windows - 1))
	l := &q.cal.coarse[k]
	at := q.nodes[i].at
	if l.head == 0 {
		*l = list{i, i}
		q.cal.coarseMin[k] = at
		q.cal.coarseBusy.set(k)
		return
	}
	q.nodes[l.tail].next = i
	l.tail = i
	q.cal.coarseMin[k] = min(q.cal.coarseMin[k], at)
}

// nextWindow returns the earliest window with a coarse list; coarseN must
// be positive.
func (q *Queue) nextWindow() int64 {
	first := q.cur>>slotBits + 1
	k := q.cal.coarseBusy.next(int(first & (windows - 1)))
	return first + (int64(k)-first)&(windows-1)
}

// cascade makes later window w current and distributes its coarse list
// into the slots. Every slot before w is empty.
func (q *Queue) cascade(w int64) {
	q.cur = w << slotBits
	k := int(w & (windows - 1))
	i := q.cal.coarse[k].head
	q.cal.coarse[k] = list{}
	q.cal.coarseBusy.clear(k)
	for i != 0 {
		next := q.nodes[i].next
		q.nodes[i].next = 0
		q.coarseN--
		q.insertFine(slotOf(q.nodes[i].at), i)
		i = next
	}
}

// Len reports the number of pending events.
func (q *Queue) Len() int { return q.fineN + q.coarseN + q.far.len() }

// PeekTime returns the time of the earliest pending event. The second return
// is false when the queue is empty.
func (q *Queue) PeekTime() (time.Duration, bool) {
	if q.Len() == 0 {
		return 0, false
	}
	return q.min, true
}

// PopDue removes and fires every event due at or before now, in time order.
// It returns the number of events fired. Fired events may push further
// events (including ones due immediately).
func (q *Queue) PopDue(now time.Duration) int {
	n := 0
	for q.Len() > 0 && q.min <= now {
		q.pop().Fire()
		n++
	}
	// Every event in a slot before now's has fired: make now's slot
	// current, so the window follows the clock even while the queue idles.
	if s := slotOf(now); s > q.cur {
		if q.coarseN > 0 && s>>slotBits != q.cur>>slotBits {
			q.cascade(s >> slotBits)
		}
		q.cur = s
	}
	return n
}

// pop removes the earliest event and returns its payload. The calendar's
// earliest event is at the head of the first busy slot, or in the first
// busy window when the slots are empty; that window is cascaded only when
// it holds the queue's earliest event, so the current slot never runs
// ahead of the clock. On equal times a far event goes first: it was pushed
// while its time lay past the horizon, so before any calendar event due at
// the same time.
func (q *Queue) pop() Firer {
	if q.fineN == 0 && q.coarseN > 0 {
		w := q.nextWindow()
		if q.far.len() == 0 || q.cal.coarseMin[w&(windows-1)] < q.far.peek() {
			q.cascade(w)
		}
	}
	var f Firer
	if k := q.firstSlot(); k >= 0 && (q.far.len() == 0 || q.nodes[q.cal.fine[k].head].at < q.far.peek()) {
		q.cur = q.cur&^(slots-1) | int64(k)
		l := &q.cal.fine[k]
		i := l.head
		f = q.nodes[i].f
		l.head = q.nodes[i].next
		if l.head == 0 {
			l.tail = 0
			q.cal.fineBusy.clear(k)
		}
		q.nodes[i] = node{next: q.free}
		q.free = i
		q.fineN--
	} else {
		f = q.far.pop().f
	}
	if q.Len() > 0 {
		q.min = q.earliest()
	}
	return f
}

// firstSlot returns the index of the first busy slot of the current
// window, or -1 when its slots are empty.
func (q *Queue) firstSlot() int {
	if q.fineN == 0 {
		return -1
	}
	return q.cal.fineBusy.next(int(q.cur & (slots - 1)))
}

// earliest returns the earliest pending time; the queue must not be empty.
func (q *Queue) earliest() time.Duration {
	var t time.Duration
	switch {
	case q.fineN > 0:
		t = q.nodes[q.cal.fine[q.firstSlot()].head].at
	case q.coarseN > 0:
		t = q.cal.coarseMin[q.nextWindow()&(windows-1)]
	default:
		return q.far.peek()
	}
	if q.far.len() > 0 {
		t = min(t, q.far.peek())
	}
	return t
}

// event is a heap entry: the far tier's events, beyond the calendar's
// horizon.
type event struct {
	at  time.Duration
	f   Firer
	seq uint64 // tie-breaker preserving push order at equal times
}

// eventHeap is a binary min-heap of events in (At, seq) order, with seq
// assigned in push order.
type eventHeap struct {
	h   []event
	seq uint64
}

func (q *eventHeap) len() int { return len(q.h) }

// peek returns the earliest event's time; the heap must not be empty.
func (q *eventHeap) peek() time.Duration { return q.h[0].at }

func (q *eventHeap) push(at time.Duration, f Firer) {
	q.seq++
	q.h = append(q.h, event{at: at, f: f, seq: q.seq})
	q.up(len(q.h) - 1)
}

// pop removes and returns the earliest event.
func (q *eventHeap) pop() event {
	ev := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h[last] = event{} // release the payload reference
	q.h = q.h[:last]
	if last > 0 {
		q.down(0)
	}
	return ev
}

// less orders events by time, then by push order.
func (q *eventHeap) less(i, j int) bool {
	if q.h[i].at != q.h[j].at {
		return q.h[i].at < q.h[j].at
	}
	return q.h[i].seq < q.h[j].seq
}

func (q *eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *eventHeap) down(i int) {
	n := len(q.h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		child := l
		if r := l + 1; r < n && q.less(r, l) {
			child = r
		}
		if !q.less(child, i) {
			return
		}
		q.h[i], q.h[child] = q.h[child], q.h[i]
		i = child
	}
}
