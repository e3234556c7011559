package sim

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"time"
)

// The differential tests below drive the calendar Queue and the binary
// heap that serves as its far tier with the same push/PopDue stream, and
// require identical firing order, counts, Len and PeekTime after every
// operation.

// mix is the splitmix64 finaliser: a fired probe derives its children
// from its own id, so both sides push the same children whatever order
// they fire in.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// side is one implementation under comparison: its push function, and the
// ids of the events it has fired.
type side struct {
	push func(at time.Duration, id uint64)
	now  *time.Duration
	log  []uint64
}

// probe is a test event. On firing it logs its id and may push up to two
// children relative to the current PopDue time: overdue, at the same
// instant, one TTI on (a PDCCH retry), sub-TTI, TTI-aligned within a few
// windows, or past the coarse horizon. The mean number of children is
// 0.5, so chains of same-instant children end.
type probe struct {
	s  *side
	id uint64
}

func (p *probe) Fire() {
	p.s.log = append(p.s.log, p.id)
	h := mix(p.id)
	kids := 0
	switch h % 10 {
	case 6, 7, 8:
		kids = 1
	case 9:
		kids = 2
	}
	for j := 0; j < kids; j++ {
		c := mix(p.id + uint64(j) + 1)
		r := c >> 8
		var off time.Duration
		switch c % 6 {
		case 0:
			off = -time.Duration(r % uint64(3*TTI))
		case 1:
			off = 0
		case 2:
			off = TTI
		case 3:
			off = time.Duration(r % uint64(TTI))
		case 4:
			off = time.Duration(r%3000) * TTI
		case 5:
			off = time.Duration(r % uint64(40*time.Minute))
		}
		p.s.push(*p.s.now+off, c)
	}
}

// twin drives a Queue and the reference heap in lockstep.
type twin struct {
	q      Queue
	ref    eventHeap
	qs, rs side
	now    time.Duration
	nextID uint64
}

func newTwin() *twin {
	t := &twin{}
	t.qs = side{now: &t.now, push: func(at time.Duration, id uint64) {
		p := &probe{&t.qs, id}
		if id%2 == 0 {
			t.q.Push(at, p.Fire)
		} else {
			t.q.PushFirer(at, p)
		}
	}}
	t.rs = side{now: &t.now, push: func(at time.Duration, id uint64) {
		t.ref.push(at, &probe{&t.rs, id})
	}}
	return t
}

// push schedules a fresh event on both sides.
func (t *twin) push(at time.Duration) error {
	t.nextID++
	t.qs.push(at, t.nextID)
	t.rs.push(at, t.nextID)
	return t.check(fmt.Sprintf("push(%v)", at))
}

// popDue runs PopDue(now) on both sides and compares what fired.
func (t *twin) popDue(now time.Duration) error {
	t.now = now
	nq := t.q.PopDue(now)
	nr := 0
	for t.ref.len() > 0 && t.ref.peek() <= now {
		t.ref.pop().f.Fire()
		nr++
	}
	op := fmt.Sprintf("PopDue(%v)", now)
	if nq != nr || !slices.Equal(t.qs.log, t.rs.log) {
		return fmt.Errorf("%s fired %d %v, heap fired %d %v", op, nq, t.qs.log, nr, t.rs.log)
	}
	t.qs.log, t.rs.log = t.qs.log[:0], t.rs.log[:0]
	return t.check(op)
}

func (t *twin) check(op string) error {
	if a, b := t.q.Len(), t.ref.len(); a != b {
		return fmt.Errorf("after %s: Len %d, heap %d", op, a, b)
	}
	at, ok := t.q.PeekTime()
	var rat time.Duration
	if t.ref.len() > 0 {
		rat = t.ref.peek()
	}
	if ok != (t.ref.len() > 0) || at != rat {
		return fmt.Errorf("after %s: PeekTime (%v, %v), heap (%v, %v)", op, at, ok, rat, t.ref.len() > 0)
	}
	return nil
}

// drain fires everything left, far past the last event either side holds.
func (t *twin) drain() error {
	for i := 0; i < 4 && t.ref.len() > 0; i++ {
		if err := t.popDue(t.now + 2*time.Hour); err != nil {
			return err
		}
	}
	return t.check("drain")
}

// TestQueueMatchesHeap compares the calendar with the heap on random
// streams. Each seed draws a push horizon (3 TTIs to past the coarse
// horizon), a start time (the first pushes of a late start land past the
// horizon of the untouched calendar) and a stream of batches of pushes,
// some overdue, sub-TTI or at an already used time, and PopDue calls at
// aligned, unaligned and occasionally earlier times.
func TestQueueMatchesHeap(t *testing.T) {
	horizons := []time.Duration{3 * TTI, 40 * TTI, 1500 * TTI, 90 * time.Second, 25 * time.Minute}
	for seed := uint64(1); seed <= 600; seed++ {
		g := NewRNG(seed)
		horizon := horizons[seed%uint64(len(horizons))]
		tw := newTwin()
		if g.Bool(0.3) {
			tw.now = time.Duration(g.IntN(int(time.Hour)))
		}
		var used []time.Duration
		fail := func(err error) {
			t.Fatalf("seed %d (horizon %v): %v", seed, horizon, err)
		}
		for op := 0; op < 200; op++ {
			if g.Bool(0.5) {
				for k := 1 + g.IntN(8); k > 0; k-- {
					var at time.Duration
					switch {
					case len(used) > 0 && g.Bool(0.2):
						at = used[g.IntN(len(used))]
					case g.Bool(0.1):
						at = tw.now - time.Duration(g.IntN(int(5*TTI)))
					case g.Bool(0.3):
						at = tw.now + time.Duration(g.IntN(int(horizon)/int(TTI)+1))*TTI
					default:
						at = tw.now + time.Duration(g.IntN(int(horizon)))
					}
					used = append(used, at)
					if err := tw.push(at); err != nil {
						fail(err)
					}
				}
				continue
			}
			now := tw.now
			switch r := g.Float64(); {
			case r < 0.4:
				now = (now/TTI + 1) * TTI
			case r < 0.6:
				now += time.Duration(1+g.IntN(int(horizon/TTI)+1)) * TTI
			case r < 0.9:
				now += time.Duration(g.IntN(int(horizon)/4 + 1))
			case r < 0.95:
				now -= time.Duration(g.IntN(int(10 * TTI)))
			default:
				now += horizon
			}
			if err := tw.popDue(now); err != nil {
				fail(err)
			}
		}
		if err := tw.drain(); err != nil {
			fail(err)
		}
	}
}

// FuzzQueueOrder decodes an op stream from the input, three bytes an op:
// a kind byte and a 16-bit argument. Pushes land overdue, sub-TTI, at a
// reused time, TTI-aligned or past the coarse horizon; PopDue steps the
// clock by whole TTIs, by sub-TTI amounts, or by minutes. The seed corpus
// is in testdata/fuzz/FuzzQueueOrder.
func FuzzQueueOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		tw := newTwin()
		var used []time.Duration
		for len(ops) >= 3 {
			kind, arg := ops[0], time.Duration(binary.LittleEndian.Uint16(ops[1:3]))
			ops = ops[3:]
			var at time.Duration
			switch kind % 8 {
			case 0: // overdue, or now
				at = tw.now - arg%(4*TTI/time.Microsecond)*time.Microsecond
			case 1: // sub-TTI ahead
				at = tw.now + arg%1000*time.Microsecond
			case 2: // TTI-aligned, up to 64 windows ahead
				at = (tw.now/TTI + arg) * TTI
			case 3: // past the coarse horizon
				at = tw.now + 17*time.Minute + arg*time.Second/16
			case 4: // a time already used
				if len(used) == 0 {
					continue
				}
				at = used[int(arg)%len(used)]
			default:
				now := tw.now + arg*time.Microsecond // unaligned
				if kind%8 == 5 {
					now = (tw.now/TTI + 1 + arg%4) * TTI // the next edges
				} else if kind%8 == 7 {
					now = tw.now + arg*time.Minute/64
				}
				if err := tw.popDue(now); err != nil {
					t.Fatal(err)
				}
				continue
			}
			used = append(used, at)
			if err := tw.push(at); err != nil {
				t.Fatal(err)
			}
		}
		if err := tw.drain(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestQueueSteadyStateAllocs checks that a warm queue schedules and fires
// without allocating, on every path: in-window per-TTI pushes, pushes into
// later windows that cascade into the slots, and pushes past the coarse
// horizon into the heap.
func TestQueueSteadyStateAllocs(t *testing.T) {
	var q Queue
	fired := 0
	closure := func() { fired++ }
	firer := funcFirer(closure)
	now := time.Duration(0)
	pushes := 0
	round := func() {
		for i := 0; i < 3*slots; i++ {
			q.Push(now+TTI, closure)
			q.PushFirer(now+TTI+time.Duration(i%7)*time.Microsecond, firer)
			pushes += 2
			if i%16 == 0 {
				q.Push(now+1500*time.Millisecond+time.Duration(i)*time.Microsecond, closure)
				pushes++
			}
			if i%256 == 0 {
				q.PushFirer(now+20*time.Minute, firer)
				pushes++
			}
			now += TTI
			q.PopDue(now)
		}
		now += 20*time.Minute + time.Second
		q.PopDue(now)
	}
	round()
	if a := testing.AllocsPerRun(5, round); a != 0 {
		t.Fatalf("warm queue allocates %v per round, want 0", a)
	}
	if q.Len() != 0 || fired != pushes {
		t.Fatalf("fired %d of %d pushes, %d left", fired, pushes, q.Len())
	}
}
