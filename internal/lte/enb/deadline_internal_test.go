package enb

import (
	"testing"
	"time"

	"ltefp/internal/lte/epc"
	"ltefp/internal/lte/operator"
	"ltefp/internal/lte/ue"
	"ltefp/internal/sim"
)

// TestIdleDeadlineStaleGeneration checks the recycling guard through the
// cell: UE a connects and arms its inactivity deadline, then leaves before
// it fires, and its context is recycled for UE b. When a's stale deadline
// fires, b must stay connected and must not gain a second deadline; b is
// released at exactly its own deadline,
// ceil((lastActivity+InactivityTimeout)/TTI).
func TestIdleDeadlineStaleGeneration(t *testing.T) {
	p := operator.Lab()
	p.InactivityTimeout = 100 * time.Millisecond
	rng := sim.NewRNG(7)
	core := epc.NewCore(rng.Fork())
	c, err := NewCell(1, p, core, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	newUE := func(name string) *ue.UE {
		u := ue.New(name, epc.IMSI("90017000000"+name), sim.NewRNG(uint64(len(name))+3))
		u.TMSI = core.Attach(u.IMSI)
		u.HasTMSI = true
		c.Camp(u)
		return u
	}
	deadlineOf := func(ctx *ueCtx) int64 {
		return int64((ctx.lastActivity + p.InactivityTimeout + sim.TTI - 1) / sim.TTI)
	}
	var now time.Duration
	tickTo := func(sf int64) {
		for ; now <= time.Duration(sf)*sim.TTI; now += sim.TTI {
			c.Tick(now)
		}
	}
	a, b := newUE("a"), newUE("b")

	c.DeliverUL(a, 100, now)
	tickTo(30)
	ctxA := c.byUE[a]
	if a.State != ue.Connected || !ctxA.idleArmed {
		t.Fatalf("UE a: state %v, idle deadline armed %v; want connected and armed", a.State, ctxA.idleArmed)
	}
	genA, staleAt := ctxA.gen, deadlineOf(ctxA)
	c.Leave(a)
	tickTo(31) // compaction recycles a's context

	c.DeliverUL(b, 100, now)
	tickTo(60)
	ctxB := c.byUE[b]
	if b.State != ue.Connected || ctxB != ctxA || ctxB.gen == genA {
		t.Fatalf("UE b: state %v, recycled a's context %v (gen %d, a's %d); the test needs a connected recycled tenancy",
			b.State, ctxB == ctxA, ctxB.gen, genA)
	}
	own := deadlineOf(ctxB)
	if own <= staleAt {
		t.Fatalf("b's deadline %d does not follow a's stale one %d", own, staleAt)
	}

	// Only the two deadlines are pending: a's stale one and b's own.
	tickTo(staleAt - 1)
	if n := c.ctl.Len(); n != 2 {
		t.Fatalf("%d events pending before the stale deadline, want 2", n)
	}
	tickTo(staleAt)
	if b.State != ue.Connected {
		t.Fatalf("UE b released by a's stale deadline at subframe %d", staleAt)
	}
	if n := c.ctl.Len(); n != 1 {
		t.Fatalf("%d events pending after the stale deadline fired, want only b's own", n)
	}
	tickTo(own - 1)
	if b.State != ue.Connected {
		t.Fatalf("UE b released before its deadline %d", own)
	}
	tickTo(own)
	if b.State != ue.Idle {
		t.Fatalf("UE b state %v at its deadline %d, want released", b.State, own)
	}
}
