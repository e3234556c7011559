package sniffer_test

import (
	"slices"
	"sort"
	"testing"
	"time"

	"ltefp/internal/lte/crc"
	"ltefp/internal/lte/dci"
	"ltefp/internal/lte/phy"
	"ltefp/internal/lte/rnti"
	"ltefp/internal/obs"
	"ltefp/internal/sim"
	"ltefp/internal/sniffer"
	"ltefp/internal/trace"
)

// grantFor builds one valid PDCCH candidate addressed to r.
func grantFor(t *testing.T, r rnti.RNTI) phy.Transmission {
	t.Helper()
	msg := dci.Message{Format: dci.Format1A, NPRB: 2, MCS: 9}
	payload := make([]byte, dci.PayloadLen)
	if err := msg.PackInto(payload); err != nil {
		t.Fatal(err)
	}
	return phy.Transmission{Payload: payload, MaskedCRC: crc.Attach(payload, uint16(r))}
}

// TestValidationIsIdempotent is the regression test for the
// plausibility_rejects double-count: re-validating the same records used to
// increment the obs counter again on every call, diverging from Stats.
// Both views must now report the same value, unchanged across repeat calls.
func TestValidationIsIdempotent(t *testing.T) {
	reg := obs.NewRegistry()
	s := sniffer.New(sniffer.Config{CorruptProb: 0.3, Metrics: reg.Scope("sniffer")}, sim.NewRNG(5))
	b := newBench(t, s)
	b.cell.DeliverDL(b.u, 200000, b.now)
	b.run(2 * time.Second)

	first := s.AppendValidated(nil, 3)
	rejects := reg.Snapshot().Counter("sniffer.plausibility_rejects")
	if rejects == 0 {
		t.Fatal("corrupting capture produced no plausibility rejects; nothing to regress")
	}
	if got := s.Stats().PlausibilityRejects; got != rejects {
		t.Fatalf("Stats.PlausibilityRejects = %d, obs counter = %d", got, rejects)
	}
	for i := 0; i < 3; i++ {
		again := s.AppendValidated(nil, 3)
		if len(again) != len(first) {
			t.Fatalf("revalidation %d returned %d records, first returned %d", i, len(again), len(first))
		}
		if now := reg.Snapshot().Counter("sniffer.plausibility_rejects"); now != rejects {
			t.Fatalf("revalidation %d moved plausibility_rejects %d -> %d (double count)", i, rejects, now)
		}
		if got := s.Stats().PlausibilityRejects; got != rejects {
			t.Fatalf("revalidation %d: Stats says %d, obs says %d", i, got, rejects)
		}
	}
}

// TestObserveZeroLengthPayload is the regression test for the corrupt()
// panic: a zero-byte PDCCH payload fed through Observe with corruption
// certain used to call rng.IntN(0).
func TestObserveZeroLengthPayload(t *testing.T) {
	s := sniffer.New(sniffer.Config{CorruptProb: 1}, sim.NewRNG(6))
	sf := &phy.Subframe{PDCCH: []phy.Transmission{{Payload: nil, MaskedCRC: crc.Attach(nil, 0x4242)}}}
	for i := 0; i < 16; i++ { // several draws so the corruption branch is taken
		s.Observe(1, sf)
	}
	st := s.Stats()
	if st.Corrupted == 0 {
		t.Fatal("CorruptProb=1 but no payload was corrupted")
	}
	if st.ParseRejects != st.Candidates {
		t.Fatalf("%d of %d empty candidates decoded", st.Candidates-st.ParseRejects, st.Candidates)
	}
}

// TestPlausibilityBusyCell exercises the count table at realistic scale:
// hundreds of distinct C-RNTIs, seen one to four times each in an order
// that is not sorted, must validate exactly the records of the RNTIs seen
// at least the threshold number of times, in capture order.
func TestPlausibilityBusyCell(t *testing.T) {
	const users, minCount = 400, 3
	s := sniffer.New(sniffer.Config{}, sim.NewRNG(7))
	rng := sim.NewRNG(8)
	rs := make([]rnti.RNTI, 0, users)
	used := make(map[rnti.RNTI]bool)
	for len(rs) < users {
		r := rnti.RNTI(int(rnti.CMin) + rng.IntN(int(rnti.CMax-rnti.CMin)+1))
		if used[r] {
			continue
		}
		used[r] = true
		rs = append(rs, r)
	}
	// RNTI i is seen 1 + i%4 times, round by round, each sighting on its
	// own subframe.
	idx := int64(0)
	for round := 0; round < 4; round++ {
		for i, r := range rs {
			if round <= i%4 {
				s.Observe(1, &phy.Subframe{Index: idx, PDCCH: []phy.Transmission{grantFor(t, r)}})
				idx += 5
			}
		}
	}
	var want trace.Trace
	for _, rec := range s.Records() {
		if i := slices.Index(rs, rec.RNTI); 1+i%4 >= minCount {
			want = append(want, rec)
		}
	}
	got := s.AppendValidated(nil, minCount)
	if len(got) == 0 || !slices.Equal(got, want) {
		t.Fatalf("busy cell: validated %d records, want %d", len(got), len(want))
	}
	if rejects := s.Stats().PlausibilityRejects; rejects != int64(len(s.Records())-len(want)) {
		t.Fatalf("busy cell: %d plausibility rejects, want %d", rejects, len(s.Records())-len(want))
	}
}

// TestStatsMatchMetrics is the property-style parity check: after a lossy,
// corrupting capture plus validation, every Stats field must equal its obs
// counter. This is the net that would have caught the reject double-count.
func TestStatsMatchMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := sniffer.New(sniffer.Config{LossProb: 0.15, CorruptProb: 0.25, Metrics: reg.Scope("sniffer")}, sim.NewRNG(9))
	b := newBench(t, s)
	for i := 0; i < 5; i++ {
		b.cell.DeliverDL(b.u, 80000, b.now)
		b.cell.DeliverUL(b.u, 30000, b.now)
		b.run(time.Second)
	}
	s.AppendValidated(nil, 3)
	s.AppendValidated(nil, 3) // idempotency under the same lens

	st := s.Stats()
	snap := reg.Snapshot()
	pairs := []struct {
		field string
		stat  int64
		name  string
	}{
		{"Candidates", st.Candidates, "sniffer.candidates"},
		{"Captured", st.Captured, "sniffer.records"},
		{"Dropped", st.Dropped, "sniffer.lost"},
		{"Corrupted", st.Corrupted, "sniffer.corrupted"},
		{"CorruptCaught", st.CorruptCaught, "sniffer.corrupt_caught"},
		{"CorruptLeaked", st.CorruptLeaked, "sniffer.corrupt_leaked"},
		{"ParseRejects", st.ParseRejects, "sniffer.parse_rejects"},
		{"PlausibilityRejects", st.PlausibilityRejects, "sniffer.plausibility_rejects"},
	}
	for _, p := range pairs {
		if got := snap.Counter(p.name); got != p.stat {
			t.Errorf("Stats.%s = %d but obs %s = %d", p.field, p.stat, p.name, got)
		}
	}
	if st.Candidates == 0 || st.Dropped == 0 || st.Corrupted == 0 {
		t.Fatalf("capture not degraded enough to exercise the funnel: %+v", st)
	}
}

// TestDrainValidatedMatchesBatch checks the streaming drain contract: two
// identically-seeded sniffers observing the same cell, one drained
// mid-capture at arbitrary points and one batch-validated at the end, must
// deliver the same record multiset, and FlushRejected must agree with the
// batch path's reject count.
func TestDrainValidatedMatchesBatch(t *testing.T) {
	const minCount = 3
	streamed := sniffer.New(sniffer.Config{CorruptProb: 0.3}, sim.NewRNG(10))
	batch := sniffer.New(sniffer.Config{CorruptProb: 0.3}, sim.NewRNG(10))
	b := newBench(t, streamed)
	b.cell.AddObserver(batch)
	b.cell.DeliverDL(b.u, 150000, b.now)

	var drained trace.Trace
	for i := 0; i < 20; i++ { // drain every 100 ms, mid-capture
		b.run(100 * time.Millisecond)
		drained = streamed.DrainValidated(drained, minCount)
	}
	drained = streamed.DrainValidated(drained, minCount)
	flushRejects := streamed.FlushRejected()

	want := batch.AppendValidated(nil, minCount)
	if len(drained) != len(want) {
		t.Fatalf("drained %d records, batch validated %d", len(drained), len(want))
	}
	key := func(r trace.Record) [5]int64 {
		return [5]int64{int64(r.At), int64(r.CellID), int64(r.RNTI), int64(r.Dir), int64(r.Bytes)}
	}
	sortTrace := func(tr trace.Trace) {
		sort.Slice(tr, func(i, j int) bool {
			a, b := key(tr[i]), key(tr[j])
			for k := range a {
				if a[k] != b[k] {
					return a[k] < b[k]
				}
			}
			return false
		})
	}
	a := append(trace.Trace(nil), drained...)
	w := append(trace.Trace(nil), want...)
	sortTrace(a)
	sortTrace(w)
	for i := range w {
		if a[i] != w[i] {
			t.Fatalf("record %d: drained %+v, batch %+v", i, a[i], w[i])
		}
	}
	if br := batch.Stats().PlausibilityRejects; flushRejects != br {
		t.Fatalf("FlushRejected = %d, batch PlausibilityRejects = %d", flushRejects, br)
	}
	if got := streamed.Stats().PlausibilityRejects; got != flushRejects {
		t.Fatalf("streamed Stats.PlausibilityRejects = %d, FlushRejected returned %d", got, flushRejects)
	}
	if flushRejects == 0 {
		t.Fatal("corrupting capture produced no rejects; drain path untested")
	}
	// Per-RNTI time order must survive the held-back release.
	lastAt := map[rnti.RNTI]time.Duration{}
	for _, r := range drained {
		if at, ok := lastAt[r.RNTI]; ok && r.At < at {
			t.Fatalf("drain broke time order for %v: %v after %v", r.RNTI, r.At, at)
		}
		lastAt[r.RNTI] = r.At
	}
}
