package enb_test

import (
	"testing"
	"time"

	"ltefp/internal/lte/operator"
	"ltefp/internal/lte/rrc"
	"ltefp/internal/lte/ue"
)

// firstPagingIndex delivers downlink to an idle UE at exactly a paging
// occasion boundary (64 ms) and reports the subframe index of the first
// paging message on the air.
func firstPagingIndex(t *testing.T) int64 {
	t.Helper()
	r := newRig(t, operator.Lab())
	u := r.newUE("a")
	r.run(64 * time.Millisecond)
	r.cell.DeliverDL(u, 500, r.now)
	r.run(80 * time.Millisecond)
	for _, sf := range r.rec.subframes {
		for i := range sf.PDCCH {
			if _, ok := sf.PDCCH[i].Plaintext.(rrc.Paging); ok {
				return sf.Index
			}
		}
	}
	t.Fatal("no paging message observed")
	return -1
}

// TestPagingOnOccasionBoundary pins the boundary-timing fix: downlink
// arriving exactly on a paging occasion is paged in that same subframe,
// not one full cycle later. Regression for the off-by-one where
// now%cycle == 0 pushed the page out to now+32ms.
func TestPagingOnOccasionBoundary(t *testing.T) {
	if idx := firstPagingIndex(t); idx != 64 {
		t.Errorf("boundary-time downlink paged at subframe %d, want 64 (the arrival's own occasion)", idx)
	}
}

// TestPagingDelayAccounting checks the occasion-wait accounting: a
// boundary arrival waits zero subframes, a mid-cycle arrival waits the
// remainder of the cycle.
func TestPagingDelayAccounting(t *testing.T) {
	r := newRig(t, operator.Lab())
	u := r.newUE("a")
	r.run(64 * time.Millisecond)
	r.cell.DeliverDL(u, 500, r.now)
	if d := r.cell.DefenseStats().PagingDelayTTIs; d != 0 {
		t.Errorf("boundary arrival accrued %d delay TTIs, want 0", d)
	}

	r2 := newRig(t, operator.Lab())
	u2 := r2.newUE("a")
	r2.run(5 * time.Millisecond)
	r2.cell.DeliverDL(u2, 500, r2.now)
	if d := r2.cell.DefenseStats().PagingDelayTTIs; d != 27 {
		t.Errorf("arrival at 5 ms accrued %d delay TTIs, want 27 (next 32 ms occasion)", d)
	}
}

// TestSameOccasionPagingBatched pins the batching fix: two idle UEs whose
// downlink arrives before the same paging occasion share one paging
// message carrying both records, instead of each costing its own PRNTI
// message (and PDCCH/CCE budget).
func TestSameOccasionPagingBatched(t *testing.T) {
	r := newRig(t, operator.Lab())
	a, b := r.newUE("a"), r.newUE("b")
	r.run(5 * time.Millisecond)
	r.cell.DeliverDL(a, 400, r.now)
	r.cell.DeliverDL(b, 400, r.now)
	r.run(100 * time.Millisecond)

	var pages []rrc.Paging
	for _, pl := range r.rec.plaintexts() {
		if pg, ok := pl.(rrc.Paging); ok {
			pages = append(pages, pg)
		}
	}
	if len(pages) != 1 {
		t.Fatalf("%d paging messages for one occasion, want 1 batched message", len(pages))
	}
	recs := pages[0].Records
	if len(recs) != 2 || recs[0].TMSI != uint32(a.TMSI) || recs[1].TMSI != uint32(b.TMSI) {
		t.Fatalf("batched records = %+v, want both TMSIs in delivery order", recs)
	}
	if st := r.cell.DefenseStats(); st.PagingMessages != 1 || st.PagingRecords != 2 {
		t.Errorf("paging stats = %+v, want 1 message / 2 records", st)
	}
	if a.State != ue.Connected || b.State != ue.Connected {
		t.Errorf("paged UEs ended %v/%v, want both connected", a.State, b.State)
	}
}

// TestSmartPagingCycle checks the coarsened paging cycle: with a 128 TTI
// cycle, a 5 ms arrival is paged at subframe 128 and accrues the longer
// occasion wait — the latency cost smart paging trades for its larger
// per-occasion anonymity set.
func TestSmartPagingCycle(t *testing.T) {
	p := operator.Lab()
	p.PagingCycleTTI = 128
	r := newRig(t, p)
	u := r.newUE("a")
	r.run(5 * time.Millisecond)
	r.cell.DeliverDL(u, 500, r.now)
	r.run(200 * time.Millisecond)
	var idx int64 = -1
	for _, sf := range r.rec.subframes {
		for i := range sf.PDCCH {
			if _, ok := sf.PDCCH[i].Plaintext.(rrc.Paging); ok && idx < 0 {
				idx = sf.Index
			}
		}
	}
	if idx != 128 {
		t.Errorf("paged at subframe %d, want 128 under a 128 TTI cycle", idx)
	}
	if d := r.cell.DefenseStats().PagingDelayTTIs; d != 123 {
		t.Errorf("accrued %d delay TTIs, want 123", d)
	}
	if u.State != ue.Connected {
		t.Errorf("UE ended %v, want connected", u.State)
	}
}

// TestPagingBatchCap splits an oversubscribed occasion into multiple
// messages at the per-message record cap.
func TestPagingBatchCap(t *testing.T) {
	p := operator.Lab()
	p.PagingBatchMax = 2
	r := newRig(t, p)
	ues := []*ue.UE{r.newUE("a"), r.newUE("b"), r.newUE("c")}
	r.run(5 * time.Millisecond)
	for _, u := range ues {
		r.cell.DeliverDL(u, 300, r.now)
	}
	r.run(100 * time.Millisecond)
	var sizes []int
	for _, pl := range r.rec.plaintexts() {
		if pg, ok := pl.(rrc.Paging); ok {
			sizes = append(sizes, len(pg.Records))
		}
	}
	if len(sizes) != 2 || sizes[0] != 2 || sizes[1] != 1 {
		t.Fatalf("message record counts = %v, want [2 1] under cap 2", sizes)
	}
	for _, u := range ues {
		if u.State != ue.Connected {
			t.Fatalf("paged UE %s ended %v, want connected", u.Name, u.State)
		}
	}
}
