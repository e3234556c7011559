package enb_test

import (
	"testing"
	"time"

	"ltefp/internal/lte/dci"
	"ltefp/internal/lte/operator"
	"ltefp/internal/lte/rnti"
	"ltefp/internal/lte/rrc"
	"ltefp/internal/lte/ue"
	"ltefp/internal/sim"
)

// connectedAt ticks the rig until u connects and returns the activation
// time (the now of the tick that connected it).
func connectedAt(r *rig, u *ue.UE) time.Duration {
	for end := r.now + 50*time.Millisecond; r.now < end; r.now += sim.TTI {
		r.cell.Tick(r.now)
		if u.State == ue.Connected {
			at := r.now
			r.now += sim.TTI
			return at
		}
	}
	return -1
}

// TestRNTIRefreshDefense checks the §VIII-B countermeasure: a connected
// UE's C-RNTI is replaced, unlinkably, on the first 32-subframe refresh
// occasion at which it has aged past the profile period.
func TestRNTIRefreshDefense(t *testing.T) {
	p := operator.Lab()
	// Off the TTI grid, so the occasion's rounding is exercised.
	p.RNTIRefreshEvery = 300*time.Millisecond + 300*time.Microsecond
	r := newRig(t, p)
	u := r.newUE("a")
	r.cell.DeliverUL(u, 100, r.now)
	rntiAge := connectedAt(r, u) // the first C-RNTI's assignment
	if u.State != ue.Connected {
		t.Fatal("UE did not connect")
	}
	first := u.RNTI
	// Keep the connection busy so inactivity release never fires, and find
	// the subframe of the first RNTI change: the first multiple of 32 at
	// or past rntiAge+RNTIRefreshEvery.
	wantSF := (int64((rntiAge+p.RNTIRefreshEvery+sim.TTI-1)/sim.TTI) + 31) / 32 * 32
	changedAt := int64(-1)
	for i := 0; i < 20; i++ {
		r.cell.DeliverDL(u, 2000, r.now)
		for end := r.now + 100*time.Millisecond; r.now < end; r.now += sim.TTI {
			r.cell.Tick(r.now)
			if changedAt < 0 && u.RNTI != first {
				changedAt = int64(r.now / sim.TTI)
			}
		}
	}
	if changedAt != wantSF {
		t.Fatalf("first C-RNTI change at subframe %d, want %d (activation %v + period %v)",
			changedAt, wantSF, rntiAge, p.RNTIRefreshEvery)
	}
	if u.State != ue.Connected {
		t.Fatal("UE dropped mid-session")
	}
	if u.RNTI == first {
		t.Fatal("C-RNTI never refreshed despite the defense being on")
	}
	// The refresh must not leak any plaintext identity: the only identity
	// events are from the initial attach.
	ids := 0
	for _, pl := range r.rec.plaintexts() {
		switch pl.(type) {
		case rrc.ConnectionRequest, rrc.ConnectionSetup:
			ids++
		}
	}
	if ids > 2 {
		t.Fatalf("%d identity plaintexts observed; refreshes must be unlinkable", ids)
	}
	// Traffic continued under the new RNTIs: total delivered bytes match.
	_, _, bytesDL, _ := r.cell.Stats()
	if bytesDL != 40000 {
		t.Fatalf("delivered %d bytes across refreshes, want 40000", bytesDL)
	}
}

func TestPadBucketsDefense(t *testing.T) {
	p := operator.Lab()
	p.PadBuckets = true
	r := newRig(t, p)
	u := r.newUE("a")
	r.cell.DeliverUL(u, 1, r.now)
	r.run(50 * time.Millisecond)
	// Distinct small payloads must land on identical bucketed block sizes.
	sizes := make(map[int]bool)
	for _, payload := range []int{130, 180, 230} {
		before := len(r.rec.subframes)
		r.cell.DeliverDL(u, payload, r.now)
		r.run(50 * time.Millisecond)
		for _, sf := range r.rec.subframes[before:] {
			for i := range sf.PDCCH {
				msg, err := dci.Parse(sf.PDCCH[i].Payload)
				if err != nil || msg.Format != dci.Format1A || msg.MCS == 0 {
					continue
				}
				b, err := msg.TransportBlockBytes()
				if err != nil {
					t.Fatal(err)
				}
				sizes[b] = true
			}
		}
	}
	if len(sizes) != 1 {
		t.Fatalf("morphed block sizes = %v, want one shared bucket", sizes)
	}
	for b := range sizes {
		if b < 256 {
			t.Fatalf("bucketed block %d smaller than the 256-byte bucket", b)
		}
	}
}

func TestOneTimeIdentifiers(t *testing.T) {
	p := operator.Lab()
	p.OneTimeIdentifiers = true
	r := newRig(t, p)
	u := r.newUE("a")
	r.cell.DeliverUL(u, 100, r.now)
	r.run(100 * time.Millisecond)
	if u.State != ue.Connected {
		t.Fatal("UE did not connect under concealment")
	}
	for _, pl := range r.rec.plaintexts() {
		switch m := pl.(type) {
		case rrc.ConnectionRequest:
			if m.Identity.HasTMSI {
				t.Fatal("concealed connection request exposed a TMSI")
			}
		case rrc.ConnectionSetup:
			if m.ContentionResolution.HasTMSI {
				t.Fatal("concealed connection setup exposed a TMSI")
			}
		}
	}
	_ = rnti.RNTI(0)
}

// TestGrantQuantizationDefense checks that distinct small payloads collapse
// onto the quantization lattice: with a 256-byte quantum every sub-quantum
// payload is granted either one or two quanta, so at most two transport
// block sizes appear where an undefended scheduler would show three.
func TestGrantQuantizationDefense(t *testing.T) {
	p := operator.Lab()
	p.GrantQuantum = 256
	r := newRig(t, p)
	u := r.newUE("a")
	r.cell.DeliverUL(u, 1, r.now)
	r.run(50 * time.Millisecond)
	sizes := make(map[int]bool)
	for _, payload := range []int{130, 180, 230} {
		before := len(r.rec.subframes)
		r.cell.DeliverDL(u, payload, r.now)
		r.run(50 * time.Millisecond)
		for _, sf := range r.rec.subframes[before:] {
			for i := range sf.PDCCH {
				msg, err := dci.Parse(sf.PDCCH[i].Payload)
				if err != nil || msg.Format != dci.Format1A || msg.MCS == 0 {
					continue
				}
				b, err := msg.TransportBlockBytes()
				if err != nil {
					t.Fatal(err)
				}
				if b < 256 {
					t.Fatalf("quantized block %d smaller than one quantum", b)
				}
				sizes[b] = true
			}
		}
	}
	if len(sizes) > 2 {
		t.Fatalf("quantized block sizes = %v, want at most the one- and two-quantum lattice points", sizes)
	}
	if r.cell.DefenseStats().PadBytes == 0 {
		t.Fatal("quantization over-grants accrued no measured padding overhead")
	}
}

// TestDummyBurstDefense checks cover-burst injection: a connected but
// otherwise silent UE keeps receiving downlink grants carrying dummy
// payload, and the injected bytes are accounted as overhead.
func TestDummyBurstDefense(t *testing.T) {
	p := operator.Lab()
	p.DummyBurstProb = 1
	p.DummyBurstMaxBytes = 1200
	r := newRig(t, p)
	u := r.newUE("a")
	r.cell.DeliverUL(u, 100, r.now)
	r.run(500 * time.Millisecond)
	if u.State != ue.Connected {
		t.Fatal("UE did not stay connected under dummy bursts")
	}
	st := r.cell.DefenseStats()
	if st.DummyBytes == 0 {
		t.Fatal("no dummy bytes injected with DummyBurstProb=1")
	}
	_, _, bytesDL, _ := r.cell.Stats()
	if bytesDL == 0 {
		t.Fatal("dummy bursts never reached the air interface")
	}
}

// TestConstantRateDefense checks the constant-rate top-up: with no real
// downlink at all, the scheduler still serves at least ConstantRateBytes
// per period, so the observable rate is flat regardless of the app.
func TestConstantRateDefense(t *testing.T) {
	p := operator.Lab()
	p.ConstantRatePeriodTTI = 20
	p.ConstantRateBytes = 300
	r := newRig(t, p)
	u := r.newUE("a")
	r.cell.DeliverUL(u, 100, r.now)
	r.run(500 * time.Millisecond)
	if u.State != ue.Connected {
		t.Fatal("UE did not stay connected under constant-rate cover")
	}
	st := r.cell.DefenseStats()
	if st.CoverBytes == 0 {
		t.Fatal("no cover bytes injected")
	}
	_, _, bytesDL, _ := r.cell.Stats()
	// ~25 periods over 500 ms at 300 bytes each, minus ramp-up slack.
	if bytesDL < 4000 {
		t.Fatalf("served %d downlink bytes, want a sustained constant-rate floor", bytesDL)
	}
}
