// The partitioned event fabric: cells are shards stepped independently
// between synchronization points and joined at TTI barriers.
//
// Determinism contract. The run loop alternates two regimes:
//
//   - Serial phases at each sync point, on the caller's goroutine, in a
//     fixed order: (1) cross-shard mail from the previous block is applied
//     in shard-index order, (2) due network-tier events (session starts,
//     mobility, GUTI reallocation) fire from the network queue.
//   - A free-run block: every shard advances its own cell TTI by TTI up to
//     the next sync point, touching only state it owns — its cell, its
//     queue, the UEs camped on its cell, and its RNG forks.
//
// Sync points sit at every pending network-event time (rounded up to a TTI
// boundary, matching the old per-TTI loop which fired sub-TTI events at
// the next subframe edge) and at least every fabricStride TTIs. Block
// boundaries therefore depend only on queue contents — never on worker
// count — and shards never share mutable state inside a block, so the
// simulation output is byte-identical whether blocks run serially or on
// GOMAXPROCS workers.
//
// Cross-shard effects travel as mail: a shard that discovers mid-block
// that an event belongs elsewhere (an arrival for a UE that has moved, a
// handover admission for a neighbour cell) appends to its private outbox;
// outboxes are drained into the network mailbox after the block joins and
// applied at the next sync point, shard-index order first, append order
// second. Mail latency is bounded by one block (≤ fabricStride TTIs) and
// is itself deterministic, because block boundaries are.
package network

import (
	"runtime"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/lte/enb"
	"ltefp/internal/lte/ue"
	"ltefp/internal/par"
	"ltefp/internal/sim"
)

// fabricStride caps how far shards free-run between sync points. Longer
// strides amortize barrier cost; shorter strides tighten cross-shard mail
// latency. 32 TTIs matches the RNTI-refresh cadence and keeps worst-case
// forwarding delay at 32 ms simulated.
const fabricStride = 32 * sim.TTI

// shard is one independently-steppable cell partition: the cell, its
// private event queue (application arrivals for UEs camped there), its
// clock position, and its outbox for cross-shard mail.
type shard struct {
	idx   int
	cell  *enb.Cell
	queue sim.Queue
	now   time.Duration
	out   []mail
}

// mailKind discriminates cross-shard messages.
type mailKind uint8

const (
	// mailDeliver forwards an application arrival to the UE's current
	// cell: the arrival fired on the shard of the cell the UE occupied at
	// scheduling time, but the UE has since moved.
	mailDeliver mailKind = iota
	// mailAdmit asks the handover target cell to admit a UE the source
	// cell has just released, carrying over the unsent queue bytes.
	mailAdmit
)

// mail is one cross-shard message, applied serially at a sync point.
type mail struct {
	kind   mailKind
	u      *ue.UE
	a      appmodel.Arrival
	target int
	dl, ul int
}

// fire handles one application arrival on the shard that scheduled it. If
// the UE is still camped on this shard's cell the arrival is delivered
// in-place at the shard's current TTI; otherwise it is forwarded through
// the mailbox to wherever the UE lives now.
func (s *shard) fire(u *ue.UE, a appmodel.Arrival) {
	if u.CellID == s.cell.ID {
		deliver(s.cell, u, a, s.now)
		return
	}
	s.out = append(s.out, mail{kind: mailDeliver, u: u, a: a})
}

// runBlock advances the shard's cell from one sync point to the next, one
// TTI at a time. It touches only shard-owned state and may run on any
// worker goroutine.
func (s *shard) runBlock(from, to time.Duration) {
	for now := from; now < to; now += sim.TTI {
		s.now = now
		s.queue.PopDue(now)
		s.cell.Tick(now)
	}
}

// ceilTTI rounds a time up to the next TTI boundary. The fabric clock only
// rests on subframe edges, exactly like the old per-TTI loop: an event due
// mid-subframe fires at the edge that follows it.
func ceilTTI(t time.Duration) time.Duration {
	if r := t % sim.TTI; r != 0 {
		return t + sim.TTI - r
	}
	return t
}

// applyMail applies the cross-shard messages collected at the end of the
// previous block. Serial phase; the slice is already in deterministic
// order (shard index, then append order within a shard).
func (n *Network) applyMail(now time.Duration) {
	if len(n.mailbox) == 0 {
		return
	}
	for i := range n.mailbox {
		m := &n.mailbox[i]
		switch m.kind {
		case mailDeliver:
			if c, ok := n.cells[m.u.CellID]; ok {
				deliver(c, m.u, m.a, now)
			}
		case mailAdmit:
			target, ok := n.cells[m.target]
			if !ok {
				break
			}
			dl := m.dl
			if src, ok := n.cells[m.u.CellID]; ok && src != target {
				// Drain anything that arrived at the source during the
				// release gap so no queued bytes are stranded there.
				dl += src.Detach(m.u)
			}
			n.Camp(m.u, m.target)
			target.AdmitHandover(m.u, dl, m.ul, now)
		}
	}
	n.mailbox = n.mailbox[:0]
}

// collectMail drains every shard's outbox into the network mailbox in
// shard-index order. Serial phase, after the block's shards have joined.
func (n *Network) collectMail() {
	for _, s := range n.shards {
		if len(s.out) > 0 {
			n.mailbox = append(n.mailbox, s.out...)
			s.out = s.out[:0]
		}
	}
}

// run is the fabric main loop: serial sync-point phases interleaved with
// free-run blocks executed serially or across workers.
func (n *Network) run(until time.Duration) {
	untilQ := ceilTTI(until)
	workers := min(n.workers, runtime.GOMAXPROCS(0))
	for n.clock.Now() < untilQ {
		now := n.clock.Now()
		n.applyMail(now)
		n.queue.PopDue(now)
		// The block ends at the next network event (TTI-aligned), the
		// stride cap, or the run horizon — whichever comes first.
		end := now + fabricStride
		if t, ok := n.queue.PeekTime(); ok {
			if tq := ceilTTI(t); tq < end {
				end = tq
			}
		}
		if untilQ < end {
			end = untilQ
		}
		if end <= now {
			// A network event due this very TTI (e.g. a handover sync
			// no-op pushed by a just-fired event): still step one TTI so
			// the loop advances.
			end = now + sim.TTI
			if untilQ < end {
				end = untilQ
			}
		}
		if workers > 1 && len(n.shards) > 1 {
			n.runBlocks(now, end, workers)
		} else {
			for _, s := range n.shards {
				s.runBlock(now, end)
			}
		}
		n.collectMail()
		n.clock.AdvanceTo(end)
	}
}

// runBlocks runs one free-run block with the shards handed out to workers
// by internal/par. Shards touch disjoint state inside a block, so any
// shard-to-worker assignment yields identical output. It is a method of
// its own so that only the parallel path allocates the closures par needs.
func (n *Network) runBlocks(from, to time.Duration, workers int) {
	par.Workers(len(n.shards), workers, func(_ int, next func() (int, bool)) {
		for i, ok := next(); ok; i, ok = next() {
			n.shards[i].runBlock(from, to)
		}
	})
}
