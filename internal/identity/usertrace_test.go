package identity_test

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"ltefp/internal/identity"
	"ltefp/internal/lte/dci"
	"ltefp/internal/lte/rnti"
	"ltefp/internal/sniffer"
	"ltefp/internal/trace"
)

// appendAndSort is the reference UserTrace must agree with: every record
// inside one of the TMSIs' intervals, appended into an unsized slice and
// then stably sorted by time.
func appendAndSort(m *identity.Mapper, records trace.Trace, tmsis ...uint32) trace.Trace {
	var ivs []identity.Interval
	for _, iv := range m.Intervals() {
		if slices.Contains(tmsis, iv.TMSI) {
			ivs = append(ivs, iv)
		}
	}
	var out trace.Trace
	for _, rec := range records {
		for _, iv := range ivs {
			if rec.CellID == iv.CellID && rec.RNTI == iv.RNTI &&
				rec.At >= iv.From && rec.At < iv.To {
				out = append(out, rec)
				break
			}
		}
	}
	out.Sort()
	return out
}

// syntheticCapture is a three-cell capture of n records over a minute.
// The victim (TMSI 1, then 2 after a reallocation) moves through four
// 15 s eras, keeping RNTI 0x1000 across its first move from cell 1 to cell
// 2, while 200 other users, bound in every cell, fill the rest. Records
// arrive in capture order, except that when shuffled is set every tenth
// one is swapped with its successor, so the result's time order comes from
// UserTrace and not from its input.
func syntheticCapture(n int, shuffled bool) ([]sniffer.IdentityEvent, trace.Trace) {
	rng := rand.New(rand.NewPCG(5, 9))
	var events []sniffer.IdentityEvent
	victim := []struct {
		at   time.Duration
		cell int
		r    rnti.RNTI
		tmsi uint32
	}{
		{0, 1, 0x1000, 1}, {15 * time.Second, 2, 0x1000, 1},
		{30 * time.Second, 2, 0x2000, 2}, {45 * time.Second, 3, 0x3000, 2},
	}
	for _, v := range victim {
		events = append(events, event(v.at, v.cell, v.r, v.tmsi))
	}
	for u := 0; u < 200; u++ {
		for cell := 1; cell <= 3; cell++ {
			events = append(events, event(0, cell, rnti.RNTI(0x4000+u), uint32(100+u)))
		}
	}
	records := make(trace.Trace, n)
	step := time.Minute / time.Duration(n)
	for i := range records {
		at := time.Duration(i) * step
		era := int(at / (15 * time.Second))
		r := trace.Record{At: at, Dir: dci.Direction(1 + rng.IntN(2)), Bytes: 1 + rng.IntN(1500)}
		if rng.IntN(8) == 0 {
			r.CellID, r.RNTI = victim[era].cell, victim[era].r
		} else {
			r.CellID, r.RNTI = 1+rng.IntN(3), rnti.RNTI(0x4000+rng.IntN(200))
		}
		records[i] = r
	}
	if shuffled {
		for i := 0; i+1 < len(records); i += 10 {
			records[i], records[i+1] = records[i+1], records[i]
		}
	}
	return events, records
}

// TestUserTraceExactSize pins UserTrace's result: sized exactly
// (cap == len), time-ordered, and equal to appendAndSort's.
func TestUserTraceExactSize(t *testing.T) {
	type query struct {
		name  string
		m     *identity.Mapper
		recs  trace.Trace
		tmsis []uint32
	}
	var queries []query
	add := func(name string, events []sniffer.IdentityEvent, recs trace.Trace, idleGap time.Duration, tmsiSets ...[]uint32) {
		m := identity.Build(events, recs, idleGap)
		for _, tmsis := range tmsiSets {
			queries = append(queries, query{name, m, recs, tmsis})
		}
	}
	events, records := crossCellFixture()
	add("cross-cell", events, records, 10*time.Second, []uint32{0xCAFE}, []uint32{0xDEAD})
	events, records = multiTMSIFixture()
	add("multi-TMSI", events, records, 10*time.Second,
		[]uint32{0xAAA1, 0xAAA2}, []uint32{0xAAA2}, []uint32{0xAAA1}, nil)
	for _, shuffled := range []bool{false, true} {
		events, records = syntheticCapture(20000, shuffled)
		add("synthetic", events, records, 20*time.Second, []uint32{1, 2}, []uint32{2}, []uint32{150})
	}

	for _, q := range queries {
		got := q.m.UserTrace(q.recs, q.tmsis...)
		if cap(got) != len(got) {
			t.Errorf("%s %v: cap %d, len %d", q.name, q.tmsis, cap(got), len(got))
		}
		if !slices.IsSortedFunc(got, func(a, b trace.Record) int { return cmp.Compare(a.At, b.At) }) {
			t.Errorf("%s %v: result is not time-ordered", q.name, q.tmsis)
		}
		if want := appendAndSort(q.m, q.recs, q.tmsis...); !slices.Equal(got, want) {
			t.Errorf("%s %v: %d records, append-and-sort %d", q.name, q.tmsis, len(got), len(want))
		}
	}
}

// BenchmarkMapperUserTrace attributes the victim's records in a 60 000
// record capture: the per-call cost of each direction filter's
// attribution when windowing a capture.
func BenchmarkMapperUserTrace(b *testing.B) {
	events, records := syntheticCapture(60000, false)
	m := identity.Build(events, records, 20*time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(m.UserTrace(records, 1, 2)) == 0 {
			b.Fatal("empty victim trace")
		}
	}
}
