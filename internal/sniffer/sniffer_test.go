package sniffer_test

import (
	"testing"
	"time"

	"ltefp/internal/lte/dci"
	"ltefp/internal/lte/enb"
	"ltefp/internal/lte/epc"
	"ltefp/internal/lte/operator"
	"ltefp/internal/lte/ue"
	"ltefp/internal/sim"
	"ltefp/internal/sniffer"
)

// bench wires a lab cell with one UE and the sniffer under test.
type bench struct {
	cell *enb.Cell
	u    *ue.UE
	now  time.Duration
}

func newBench(t *testing.T, s *sniffer.Sniffer) *bench {
	t.Helper()
	rng := sim.NewRNG(11)
	core := epc.NewCore(rng.Fork())
	cell, err := enb.NewCell(1, operator.Lab(), core, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	cell.AddObserver(s)
	u := ue.New("victim", "900170000000001", rng.Fork())
	u.TMSI = core.Attach(u.IMSI)
	u.HasTMSI = true
	cell.Camp(u)
	return &bench{cell: cell, u: u}
}

func (b *bench) run(d time.Duration) {
	end := b.now + d
	for b.now < end {
		b.cell.Tick(b.now)
		b.now += sim.TTI
	}
}

func TestLosslessCaptureIsComplete(t *testing.T) {
	s := sniffer.New(sniffer.Config{}, sim.NewRNG(1))
	b := newBench(t, s)
	b.cell.DeliverDL(b.u, 50000, b.now)
	b.cell.DeliverUL(b.u, 20000, b.now)
	b.run(2 * time.Second)

	// The sniffer's user-plane byte count must cover exactly what the cell
	// scheduled for the victim's C-RNTI (control traffic rides on MCS 0
	// and is part of the count too, so >=).
	recs := s.Records()
	if len(recs) == 0 {
		t.Fatal("lossless sniffer captured nothing")
	}
	var bytes int
	for _, r := range recs {
		if !r.RNTI.IsC() {
			t.Fatalf("user-plane record with %v", r.RNTI)
		}
		bytes += r.Bytes
	}
	if bytes < 70000 {
		t.Fatalf("captured %d bytes, want at least the 70000 delivered", bytes)
	}
	st := s.Stats()
	if st.Dropped != 0 {
		t.Fatalf("lossless sniffer dropped %d", st.Dropped)
	}
	if st.Captured != int64(len(recs)) {
		t.Fatalf("Stats captured %d != %d records", st.Captured, len(recs))
	}
	if st.Candidates < st.Captured {
		t.Fatalf("scanned %d candidates < %d captured", st.Candidates, st.Captured)
	}
}

func TestBlindDecodeRecoversGroundTruthRNTI(t *testing.T) {
	s := sniffer.New(sniffer.Config{}, sim.NewRNG(2))
	b := newBench(t, s)
	b.cell.DeliverDL(b.u, 10000, b.now)
	b.run(time.Second)
	if b.u.RNTI == 0 {
		t.Fatal("UE never connected")
	}
	for _, r := range s.Records() {
		if r.RNTI != b.u.RNTI {
			t.Fatalf("recovered RNTI %v, ground truth %v", r.RNTI, b.u.RNTI)
		}
	}
}

func TestDirectionFilters(t *testing.T) {
	for _, cfg := range []sniffer.Config{{DownlinkOnly: true}, {UplinkOnly: true}} {
		s := sniffer.New(cfg, sim.NewRNG(3))
		b := newBench(t, s)
		b.cell.DeliverDL(b.u, 30000, b.now)
		b.cell.DeliverUL(b.u, 30000, b.now)
		b.run(2 * time.Second)
		for _, r := range s.Records() {
			if cfg.DownlinkOnly && r.Dir != dci.Downlink {
				t.Fatal("downlink-only sniffer recorded uplink")
			}
			if cfg.UplinkOnly && r.Dir != dci.Uplink {
				t.Fatal("uplink-only sniffer recorded downlink")
			}
		}
		if len(s.Records()) == 0 {
			t.Fatal("direction-filtered sniffer captured nothing")
		}
	}
}

func TestLossDropsRecords(t *testing.T) {
	full := sniffer.New(sniffer.Config{}, sim.NewRNG(4))
	lossy := sniffer.New(sniffer.Config{LossProb: 0.4}, sim.NewRNG(4))
	b := newBench(t, full)
	b.cell.AddObserver(lossy)
	b.cell.DeliverDL(b.u, 100000, b.now)
	b.run(2 * time.Second)
	if len(lossy.Records()) >= len(full.Records()) {
		t.Fatalf("lossy sniffer captured %d >= lossless %d",
			len(lossy.Records()), len(full.Records()))
	}
	if lossy.Stats().Dropped == 0 {
		t.Fatal("lossy sniffer reports zero drops")
	}
}

func TestPlausibilityFilterRemovesGhosts(t *testing.T) {
	s := sniffer.New(sniffer.Config{CorruptProb: 0.3}, sim.NewRNG(5))
	b := newBench(t, s)
	b.cell.DeliverDL(b.u, 200000, b.now)
	b.run(2 * time.Second)

	validated := s.AppendValidated(nil, 3)
	ghosts := 0
	for _, r := range validated {
		if r.RNTI != b.u.RNTI {
			ghosts++
		}
	}
	// Corruption scatters recovered RNTIs uniformly; almost none repeat
	// three times, so validation should remove essentially all of them.
	if frac := float64(ghosts) / float64(len(validated)); frac > 0.02 {
		t.Fatalf("%.1f%% ghost records survived validation", 100*frac)
	}
	raw := s.Records()
	rawGhosts := 0
	for _, r := range raw {
		if r.RNTI != b.u.RNTI {
			rawGhosts++
		}
	}
	if rawGhosts == 0 {
		t.Fatal("corruption produced no ghost records; the filter is untested")
	}
}

func TestIdentityEventsObserved(t *testing.T) {
	s := sniffer.New(sniffer.Config{}, sim.NewRNG(6))
	b := newBench(t, s)
	b.cell.DeliverUL(b.u, 1000, b.now)
	b.run(time.Second)
	events := s.IdentityEvents()
	if len(events) == 0 {
		t.Fatal("no identity events from connection establishment")
	}
	for _, e := range events {
		if !e.HasTMSI || e.TMSI != uint32(b.u.TMSI) {
			t.Fatalf("identity event %+v does not carry the victim's TMSI", e)
		}
		if e.RNTI != b.u.RNTI {
			t.Fatalf("identity event binds %v, UE holds %v", e.RNTI, b.u.RNTI)
		}
	}
}

func TestDownlinkOnlySkipsMsg3(t *testing.T) {
	// msg3 content rides on the uplink shared channel: a downlink-only
	// sniffer must bind via msg4 only (one event per establishment).
	dl := sniffer.New(sniffer.Config{DownlinkOnly: true}, sim.NewRNG(7))
	both := sniffer.New(sniffer.Config{}, sim.NewRNG(7))
	b := newBench(t, dl)
	b.cell.AddObserver(both)
	b.cell.DeliverUL(b.u, 1000, b.now)
	b.run(time.Second)
	if got, want := len(dl.IdentityEvents()), len(both.IdentityEvents()); got >= want {
		t.Fatalf("downlink-only sniffer saw %d identity events, dual saw %d", got, want)
	}
}

func TestPagingEvents(t *testing.T) {
	s := sniffer.New(sniffer.Config{}, sim.NewRNG(8))
	b := newBench(t, s)
	b.cell.DeliverDL(b.u, 1000, b.now) // idle UE → paging
	b.run(500 * time.Millisecond)
	pages := s.PagingEvents()
	if len(pages) == 0 {
		t.Fatal("no paging events observed")
	}
	if pages[0].TMSI != uint32(b.u.TMSI) {
		t.Fatalf("paging TMSI %08x, want %08x", pages[0].TMSI, uint32(b.u.TMSI))
	}
}
