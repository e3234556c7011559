package trace_test

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ltefp/internal/lte/dci"
	"ltefp/internal/lte/rnti"
	"ltefp/internal/sim"
	"ltefp/internal/trace"
)

func mkTrace(n int, seed uint64) trace.Trace {
	g := sim.NewRNG(seed)
	t := make(trace.Trace, n)
	at := time.Duration(0)
	for i := range t {
		at += time.Duration(g.IntN(50)) * time.Millisecond
		dir := dci.Downlink
		if g.Bool(0.3) {
			dir = dci.Uplink
		}
		t[i] = trace.Record{
			At:     at,
			CellID: 1 + g.IntN(3),
			RNTI:   rnti.RNTI(0x100 + g.IntN(4)),
			Dir:    dir,
			Bytes:  1 + g.IntN(4000),
		}
	}
	return t
}

func TestSortAndDuration(t *testing.T) {
	tr := trace.Trace{
		{At: 3 * time.Second}, {At: time.Second}, {At: 2 * time.Second},
	}
	tr.Sort()
	if tr[0].At != time.Second || tr[2].At != 3*time.Second {
		t.Fatal("Sort did not order by time")
	}
	if tr.Duration() != 2*time.Second {
		t.Fatalf("Duration = %v", tr.Duration())
	}
	var empty trace.Trace
	if empty.Duration() != 0 {
		t.Fatal("empty Duration != 0")
	}
}

// TestSplitDirection: the one-pass split must agree with the two
// FilterDirection scans record for record, and drop unset directions.
func TestSplitDirection(t *testing.T) {
	tr := mkTrace(500, 1)
	ul, dl := tr.SplitDirection()
	wantUL := tr.FilterDirection(dci.Uplink)
	wantDL := tr.FilterDirection(dci.Downlink)
	if len(ul) != len(wantUL) || len(dl) != len(wantDL) {
		t.Fatalf("SplitDirection lengths (%d, %d), want (%d, %d)", len(ul), len(dl), len(wantUL), len(wantDL))
	}
	for i := range ul {
		if ul[i] != wantUL[i] {
			t.Fatalf("uplink record %d differs", i)
		}
	}
	for i := range dl {
		if dl[i] != wantDL[i] {
			t.Fatalf("downlink record %d differs", i)
		}
	}
	withUnset := append(trace.Trace{{At: time.Second}}, tr[:3]...)
	ul2, dl2 := withUnset.SplitDirection()
	if len(ul2)+len(dl2) != 3 {
		t.Fatal("unset-direction record leaked into a split half")
	}
	emptyUL, emptyDL := trace.Trace(nil).SplitDirection()
	if len(emptyUL) != 0 || len(emptyDL) != 0 {
		t.Fatal("empty trace split is not empty")
	}
}

func TestFilters(t *testing.T) {
	tr := mkTrace(500, 1)
	dl := tr.FilterDirection(dci.Downlink)
	ul := tr.FilterDirection(dci.Uplink)
	if len(dl)+len(ul) != len(tr) {
		t.Fatal("direction filters lose records")
	}
	if cap(dl) != len(dl) || cap(ul) != len(ul) {
		t.Fatalf("FilterDirection is not sized exactly: cap %d/%d, len %d/%d", cap(dl), cap(ul), len(dl), len(ul))
	}
	for _, r := range dl {
		if r.Dir != dci.Downlink {
			t.Fatal("FilterDirection leaked uplink")
		}
	}
	one := tr.FilterRNTI(0x101)
	for _, r := range one {
		if r.RNTI != 0x101 {
			t.Fatal("FilterRNTI leaked")
		}
	}
	span := tr.FilterSpan(time.Second, 2*time.Second)
	for _, r := range span {
		if r.At < time.Second || r.At >= 2*time.Second {
			t.Fatal("FilterSpan out of range")
		}
	}
	groups := tr.ByRNTI()
	total := 0
	for r, g := range groups {
		total += len(g)
		for _, rec := range g {
			if rec.RNTI != r {
				t.Fatal("ByRNTI misgrouped")
			}
		}
	}
	if total != len(tr) {
		t.Fatal("ByRNTI lost records")
	}
}

func TestSplitSessions(t *testing.T) {
	tr := trace.Trace{
		{At: 0}, {At: 100 * time.Millisecond},
		{At: 20 * time.Second}, {At: 20100 * time.Millisecond},
	}
	sessions := tr.SplitSessions(10 * time.Second)
	if len(sessions) != 2 {
		t.Fatalf("%d sessions, want 2", len(sessions))
	}
	if len(sessions[0]) != 2 || len(sessions[1]) != 2 {
		t.Fatalf("session sizes %d/%d", len(sessions[0]), len(sessions[1]))
	}
	if got := trace.Trace(nil).SplitSessions(time.Second); got != nil {
		t.Fatal("empty trace should split to nil")
	}
}

// TestCSVRoundTrip: WriteCSV then ReadCSV is the identity.
func TestCSVRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		tr := mkTrace(100, seed)
		var buf bytes.Buffer
		if err := trace.WriteCSV(&buf, tr); err != nil {
			return false
		}
		got, err := trace.ReadCSV(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(tr) {
			return false
		}
		for i := range tr {
			if got[i] != tr[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	if _, err := trace.ReadCSV(strings.NewReader("not,a,trace\n")); err == nil {
		t.Fatal("bad header accepted")
	}
	bad := "time_us,cell,rnti,direction,bytes\nxyz,1,2,1,3\n"
	if _, err := trace.ReadCSV(strings.NewReader(bad)); err == nil {
		t.Fatal("bad field accepted")
	}
}

func TestTotalBytes(t *testing.T) {
	tr := trace.Trace{{Bytes: 5}, {Bytes: 7}}
	if tr.TotalBytes() != 12 {
		t.Fatalf("TotalBytes = %d", tr.TotalBytes())
	}
}
