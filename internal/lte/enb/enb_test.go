package enb_test

import (
	"testing"
	"time"

	"ltefp/internal/lte/crc"
	"ltefp/internal/lte/dci"
	"ltefp/internal/lte/enb"
	"ltefp/internal/lte/epc"
	"ltefp/internal/lte/operator"
	"ltefp/internal/lte/phy"
	"ltefp/internal/lte/rnti"
	"ltefp/internal/lte/rrc"
	"ltefp/internal/lte/ue"
	"ltefp/internal/sim"
)

// recorder captures every subframe a cell transmits. Tick's subframe is
// cell-owned scratch, so the recorder deep-copies what it wants to keep.
type recorder struct {
	subframes []*phy.Subframe
}

func (r *recorder) Observe(_ int, sf *phy.Subframe) {
	cp := &phy.Subframe{Index: sf.Index}
	for _, tx := range sf.PDCCH {
		tx.Payload = append([]byte(nil), tx.Payload...)
		cp.PDCCH = append(cp.PDCCH, tx)
	}
	cp.RACH = append(cp.RACH, sf.RACH...)
	r.subframes = append(r.subframes, cp)
}

// plaintexts returns the non-nil plaintext payloads in transmission order.
func (r *recorder) plaintexts() []any {
	var out []any
	for _, sf := range r.subframes {
		for i := range sf.PDCCH {
			if sf.PDCCH[i].Plaintext != nil {
				out = append(out, sf.PDCCH[i].Plaintext)
			}
		}
	}
	return out
}

// rig is a one-cell test bench.
type rig struct {
	core *epc.Core
	cell *enb.Cell
	rec  *recorder
	now  time.Duration
}

func newRig(t *testing.T, p operator.Profile) *rig {
	t.Helper()
	rng := sim.NewRNG(7)
	core := epc.NewCore(rng.Fork())
	cell, err := enb.NewCell(1, p, core, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	cell.AddObserver(rec)
	return &rig{core: core, cell: cell, rec: rec}
}

func (r *rig) newUE(name string) *ue.UE {
	u := ue.New(name, epc.IMSI("90017000000"+name), sim.NewRNG(uint64(len(name))+3))
	u.TMSI = r.core.Attach(u.IMSI)
	u.HasTMSI = true
	r.cell.Camp(u)
	return u
}

func (r *rig) run(d time.Duration) {
	end := r.now + d
	for r.now < end {
		r.cell.Tick(r.now)
		r.now += sim.TTI
	}
}

func TestRACHEstablishesConnection(t *testing.T) {
	r := newRig(t, operator.Lab())
	u := r.newUE("a")
	r.cell.DeliverUL(u, 500, r.now)
	r.run(30 * time.Millisecond)

	if u.State != ue.Connected {
		t.Fatalf("UE state = %v after RACH window", u.State)
	}
	if !u.RNTI.IsC() {
		t.Fatalf("UE RNTI = %v, want a C-RNTI", u.RNTI)
	}

	// The establishment plaintexts appear in protocol order with the UE's
	// identity echoed in msg4 — the observable identity mapping reads.
	var sawRAR, sawReq, sawSetup, sawSMC bool
	for _, p := range r.rec.plaintexts() {
		switch m := p.(type) {
		case rrc.RandomAccessResponse:
			sawRAR = true
			if m.TempCRNTI != u.RNTI {
				t.Errorf("RAR temp C-RNTI %v != assigned %v", m.TempCRNTI, u.RNTI)
			}
		case rrc.ConnectionRequest:
			sawReq = true
			if !sawRAR {
				t.Error("msg3 before msg2")
			}
			if !m.Identity.HasTMSI || m.Identity.TMSI != uint32(u.TMSI) {
				t.Errorf("msg3 identity %v, want TMSI %v", m.Identity, u.TMSI)
			}
		case rrc.ConnectionSetup:
			sawSetup = true
			if !sawReq {
				t.Error("msg4 before msg3")
			}
			if m.ContentionResolution.TMSI != uint32(u.TMSI) {
				t.Error("msg4 does not echo the msg3 identity")
			}
		case rrc.SecurityModeCommand:
			sawSMC = true
			if !sawSetup {
				t.Error("security mode before msg4")
			}
		}
	}
	if !sawRAR || !sawReq || !sawSetup || !sawSMC {
		t.Fatalf("incomplete establishment: RAR=%v msg3=%v msg4=%v SMC=%v",
			sawRAR, sawReq, sawSetup, sawSMC)
	}
}

func TestDownlinkByteConservation(t *testing.T) {
	r := newRig(t, operator.Lab())
	u := r.newUE("a")
	const payload = 123456
	r.cell.DeliverDL(u, payload, r.now)
	r.run(2 * time.Second)

	_, _, bytesDL, _ := r.cell.Stats()
	if bytesDL != payload {
		t.Fatalf("granted %d bytes for a %d-byte payload", bytesDL, payload)
	}
	// The transport blocks on the air must cover the payload.
	var tbSum int
	for _, sf := range r.rec.subframes {
		for i := range sf.PDCCH {
			msg, err := dci.Parse(sf.PDCCH[i].Payload)
			if err != nil {
				t.Fatal(err)
			}
			if msg.Format != dci.Format1A {
				continue
			}
			b, err := msg.TransportBlockBytes()
			if err != nil {
				t.Fatal(err)
			}
			tbSum += b
		}
	}
	if tbSum < payload {
		t.Fatalf("air-interface transport blocks total %d < payload %d", tbSum, payload)
	}
}

func TestLabGrantsAreTight(t *testing.T) {
	// With no padding and zero link-adaptation slack, a single small
	// payload's transport block should be within one MCS step of it.
	r := newRig(t, operator.Lab())
	u := r.newUE("a")
	r.cell.DeliverUL(u, 1, r.now) // bring up the connection
	r.run(50 * time.Millisecond)
	before := len(r.rec.subframes)
	r.cell.DeliverDL(u, 200, r.now)
	r.run(50 * time.Millisecond)

	for _, sf := range r.rec.subframes[before:] {
		for i := range sf.PDCCH {
			msg, err := dci.Parse(sf.PDCCH[i].Payload)
			if err != nil || msg.Format != dci.Format1A || msg.MCS == 0 {
				continue // control traffic uses MCS 0
			}
			b, err := msg.TransportBlockBytes()
			if err != nil {
				t.Fatal(err)
			}
			if b < 200 || b > 200*13/10+8 {
				t.Fatalf("lab grant for 200 B payload was %d B", b)
			}
			return
		}
	}
	t.Fatal("no data grant observed")
}

// releasedWith reports whether sf carries the encrypted RRC release on
// r: a plaintext-free format 1A assignment whose CRC is masked with r.
func releasedWith(sf *phy.Subframe, r rnti.RNTI) bool {
	for i := range sf.PDCCH {
		tx := &sf.PDCCH[i]
		if tx.Plaintext != nil || tx.MaskedCRC != crc.Attach(tx.Payload, uint16(r)) {
			continue
		}
		if msg, err := dci.Parse(tx.Payload); err == nil && msg.Format == dci.Format1A {
			return true
		}
	}
	return false
}

// TestInactivityRelease pins the release timing: a connected context with
// empty queues is released at the first subframe where
// now-lastActivity >= InactivityTimeout — subframe
// ceil((lastActivity+InactivityTimeout)/TTI), not one earlier — with the
// encrypted release on its C-RNTI in that same subframe. lastActivity is
// the connection's last grant, or its activation before any grant.
func TestInactivityRelease(t *testing.T) {
	p := operator.Lab()
	// Off the TTI grid, so the deadline's rounding is exercised.
	p.InactivityTimeout = 200*time.Millisecond + 300*time.Microsecond
	r := newRig(t, p)
	u := r.newUE("a")
	r.cell.DeliverUL(u, 100, r.now)
	var lastActivity time.Duration
	var grants int64
	var first rnti.RNTI
	releasedAt := int64(-1)
	for end := r.now + time.Second; r.now < end && releasedAt < 0; r.now += sim.TTI {
		was := u.State
		r.cell.Tick(r.now)
		dl, ul, _, _ := r.cell.Stats()
		if dl+ul != grants || (was != ue.Connected && u.State == ue.Connected) {
			grants, lastActivity = dl+ul, r.now
		}
		if u.State == ue.Connected {
			first = u.RNTI
		}
		if was == ue.Connected && u.State == ue.Idle {
			releasedAt = int64(r.now / sim.TTI)
		}
	}
	if releasedAt < 0 {
		t.Fatalf("UE state = %v after inactivity timeout", u.State)
	}
	if grants == 0 {
		t.Fatal("the uplink bytes were never granted")
	}
	want := int64((lastActivity + p.InactivityTimeout + sim.TTI - 1) / sim.TTI)
	if releasedAt != want {
		t.Fatalf("released at subframe %d, want %d (last activity %v + timeout %v)",
			releasedAt, want, lastActivity, p.InactivityTimeout)
	}
	sfs := r.rec.subframes
	if sf := sfs[len(sfs)-1]; sf.Index != want || !releasedWith(sf, first) {
		t.Fatalf("subframe %d: no encrypted release on C-RNTI %v", want, first)
	}
	if releasedWith(sfs[len(sfs)-2], first) {
		t.Fatalf("release DCI on C-RNTI %v already in subframe %d", first, want-1)
	}
	if u.RNTI != 0 {
		t.Fatalf("UE kept RNTI %v after release", u.RNTI)
	}
	// New traffic re-establishes with a fresh RNTI.
	r.cell.DeliverUL(u, 100, r.now)
	r.run(50 * time.Millisecond)
	if u.State != ue.Connected {
		t.Fatal("UE did not reconnect")
	}
	if u.RNTI == first {
		t.Fatalf("reconnection reused RNTI %v immediately", first)
	}
}

func TestPagingForIdleDownlink(t *testing.T) {
	r := newRig(t, operator.Lab())
	u := r.newUE("a")
	r.cell.DeliverDL(u, 5000, r.now)
	r.run(200 * time.Millisecond)

	if u.State != ue.Connected {
		t.Fatalf("UE state = %v: paging did not bring it back", u.State)
	}
	sawPage := false
	for _, p := range r.rec.plaintexts() {
		if pg, ok := p.(rrc.Paging); ok {
			sawPage = true
			if len(pg.Records) != 1 || pg.Records[0].TMSI != uint32(u.TMSI) {
				t.Errorf("paging records = %+v, want the UE's TMSI", pg.Records)
			}
		}
	}
	if !sawPage {
		t.Fatal("no paging message observed")
	}
	_, _, bytesDL, _ := r.cell.Stats()
	if bytesDL != 5000 {
		t.Fatalf("delivered %d bytes after paging, want 5000", bytesDL)
	}
}

func TestHandover(t *testing.T) {
	rng := sim.NewRNG(9)
	core := epc.NewCore(rng.Fork())
	src, err := enb.NewCell(1, operator.Lab(), core, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	dst, err := enb.NewCell(2, operator.Lab(), core, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	dstRec := &recorder{}
	dst.AddObserver(dstRec)

	u := ue.New("a", "900170000000099", rng.Fork())
	u.TMSI = core.Attach(u.IMSI)
	u.HasTMSI = true
	src.Camp(u)

	now := time.Duration(0)
	run := func(d time.Duration) {
		end := now + d
		for now < end {
			src.Tick(now)
			dst.Tick(now)
			now += sim.TTI
		}
	}
	src.DeliverUL(u, 100, now)
	run(50 * time.Millisecond)
	if u.State != ue.Connected {
		t.Fatal("UE did not connect to source")
	}
	oldRNTI := u.RNTI
	src.DeliverDL(u, 50000, now) // in-flight data moves with the UE
	// Wire the source's handover sink directly to the target, as the
	// network fabric's admission mailbox does.
	src.SetHandoverSink(func(hu *ue.UE, target, dl, ul int) {
		dl += src.Detach(hu)
		src.Leave(hu)
		dst.Camp(hu)
		dst.AdmitHandover(hu, dl, ul, now)
	})
	if err := src.BeginHandover(u, dst.ID, now); err != nil {
		t.Fatal(err)
	}
	run(100 * time.Millisecond)

	if u.CellID != 2 {
		t.Fatalf("UE cell = %d after handover", u.CellID)
	}
	if u.State != ue.Connected {
		t.Fatalf("UE state = %v after handover", u.State)
	}
	if u.RNTI == oldRNTI {
		t.Fatal("target cell reused the source C-RNTI")
	}
	// Non-contention access: the target cell must expose no plaintext
	// identity — the property that forces the paper's attacker to re-map
	// after handover.
	for _, p := range dstRec.plaintexts() {
		switch p.(type) {
		case rrc.ConnectionRequest, rrc.ConnectionSetup:
			t.Fatalf("handover leaked identity plaintext %T in target cell", p)
		}
	}
	run(2 * time.Second)
	_, _, bytesDL, _ := dst.Stats()
	if bytesDL != 50000 {
		t.Fatalf("target delivered %d of the 50000 queued bytes", bytesDL)
	}
}

func TestHandoverRequiresConnection(t *testing.T) {
	rng := sim.NewRNG(10)
	core := epc.NewCore(rng.Fork())
	src, err := enb.NewCell(1, operator.Lab(), core, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	dst, err := enb.NewCell(2, operator.Lab(), core, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	u := ue.New("a", "900170000000098", rng.Fork())
	src.Camp(u)
	src.SetHandoverSink(func(*ue.UE, int, int, int) {})
	if err := src.BeginHandover(u, dst.ID, 0); err == nil {
		t.Fatal("handover of an idle UE succeeded")
	}
}

func TestPDCCHNeverOverlaps(t *testing.T) {
	p := operator.TMobile()
	p.BackgroundUEs = 0 // rig drives its own UEs
	r := newRig(t, p)
	// Enough UEs to congest the PDCCH.
	var ues []*ue.UE
	for i := 0; i < 12; i++ {
		ues = append(ues, r.newUE(string(rune('a'+i))))
	}
	for _, u := range ues {
		r.cell.DeliverUL(u, 100000, r.now)
		r.cell.DeliverDL(u, 100000, r.now)
	}
	r.run(500 * time.Millisecond)
	for _, sf := range r.rec.subframes {
		occupied := make(map[int]bool)
		for i := range sf.PDCCH {
			tx := &sf.PDCCH[i]
			for c := tx.FirstCCE; c < tx.FirstCCE+tx.AggLevel; c++ {
				if occupied[c] {
					t.Fatalf("subframe %d: CCE %d double-booked", sf.Index, c)
				}
				occupied[c] = true
			}
		}
	}
}

func TestNewCellRejectsBadProfile(t *testing.T) {
	p := operator.Lab()
	p.PRBs = 0
	if _, err := enb.NewCell(1, p, epc.NewCore(sim.NewRNG(1)), sim.NewRNG(2)); err == nil {
		t.Fatal("invalid profile accepted")
	}
}
