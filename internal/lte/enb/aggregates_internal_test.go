package enb

import (
	"fmt"
	"testing"
	"time"

	"ltefp/internal/lte/epc"
	"ltefp/internal/lte/operator"
	"ltefp/internal/lte/rrc"
	"ltefp/internal/lte/ue"
	"ltefp/internal/sim"
)

// checkAggregates compares the incrementally-maintained aggregates against
// a full walk over the context table — the walk observeTick used to pay
// every sample. Released contexts linger in c.order until the next Tick
// compacts them; they are invisible to the incremental counters and to any
// reader (observeTick runs post-compaction), so the walk skips them too.
func checkAggregates(t *testing.T, c *Cell) {
	t.Helper()
	depth, connected := 0, 0
	for _, ctx := range c.order {
		if ctx.state == ctxReleased {
			continue
		}
		depth += ctx.dlQueue + ctx.ulQueue
		if ctx.state == ctxConnected {
			connected++
		}
	}
	if depth != c.aggQueue {
		t.Fatalf("cell %d: aggQueue = %d, full walk = %d", c.ID, c.aggQueue, depth)
	}
	if connected != c.nConnected {
		t.Fatalf("cell %d: nConnected = %d, full walk = %d", c.ID, c.nConnected, connected)
	}
	if got := c.Connected(); got != connected {
		t.Fatalf("cell %d: Connected() = %d, full walk = %d", c.ID, got, connected)
	}
}

// TestAggregatesMatchWalk churns a two-cell deployment through every queue
// mutation and state transition the cell has — random access, SR-delayed
// uplink, paging-triggered downlink, grants, drains, inactivity release,
// and a handover out of one cell into the other — asserting after every
// subframe that the incremental aggregates equal the full walk.
func TestAggregatesMatchWalk(t *testing.T) {
	prof := operator.TMobile()
	prof.InactivityTimeout = 150 * time.Millisecond
	rng := sim.NewRNG(11)
	core := epc.NewCore(rng.Fork())
	c1, err := NewCell(1, prof, core, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewCell(2, prof, core, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	var now time.Duration
	cells := map[int]*Cell{1: c1, 2: c2}
	sink := func(u *ue.UE, target, dl, ul int) {
		cells[target].AdmitHandover(u, dl, ul, now)
	}
	c1.SetHandoverSink(sink)
	c2.SetHandoverSink(sink)

	ues := make([]*ue.UE, 10)
	for i := range ues {
		u := ue.New(fmt.Sprintf("agg-%d", i), epc.IMSI(fmt.Sprintf("90017%010d", i)), rng.Fork())
		u.TMSI = core.Attach(u.IMSI)
		u.HasTMSI = true
		c1.Camp(u)
		ues[i] = u
	}

	traffic := rng.Fork()
	handedOver := false
	for ; now < 2*time.Second; now += sim.TTI {
		u := ues[traffic.IntN(len(ues))]
		c := cells[u.CellID]
		switch traffic.IntN(10) {
		case 0:
			c.DeliverUL(u, traffic.IntN(4000)+40, now)
		case 1:
			c.DeliverDL(u, traffic.IntN(4000)+40, now)
		case 2:
			if u.State == ue.Idle {
				c.RequestConnection(u, rrc.CauseMOData, now)
			}
		}
		if !handedOver && now > 400*time.Millisecond && u.CellID == 1 && u.State == ue.Connected {
			if err := c1.BeginHandover(u, 2, now); err != nil {
				t.Fatal(err)
			}
			handedOver = true
		}
		c1.Tick(now)
		c2.Tick(now)
		checkAggregates(t, c1)
		checkAggregates(t, c2)
	}
	if !handedOver {
		t.Fatal("churn never exercised the handover path")
	}
	if c1.Connected()+c2.Connected() == 0 {
		t.Fatal("churn left no connected UEs; the test drove nothing")
	}
}
