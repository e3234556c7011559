package features

import (
	"testing"
	"time"

	"ltefp/internal/lte/dci"
	"ltefp/internal/trace"
)

// fuzzTrace decodes a time-ordered record stream, three bytes a record:
// the first picks the gap since the previous record (same-tick ties and
// short steps inside a burst, pauses of up to 555 ms, or silences of
// whole seconds), the second and third the direction and size.
func fuzzTrace(data []byte) trace.Trace {
	var tr trace.Trace
	var at time.Duration
	for ; len(data) >= 3 && len(tr) < 4000; data = data[3:] {
		switch g := time.Duration(data[0]); {
		case g < 128:
			at += (g % 4) * time.Millisecond
		case g < 240:
			at += (g - 128) * 5 * time.Millisecond
		default:
			at += (g - 239) * 700 * time.Millisecond
		}
		dir := dci.Downlink
		if data[1]&1 == 1 {
			dir = dci.Uplink
		}
		tr = append(tr, trace.Record{At: at, Dir: dir, Bytes: 1 + int(data[1]>>1)<<8 | int(data[2])})
	}
	return tr
}

// FuzzFromTrace holds every way of running the extractor to the oracle on
// a random record stream and window geometry: FromTrace; a streamed run
// with AdvanceTo before every push; and a run whose extractor is replaced
// at a random record by one restored from its State, which checks that the
// scan cursors left out of the state rebuild correctly.
func FuzzFromTrace(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 5, 130, 7, 8, 250, 9, 10, 1, 1, 1}, uint8(19), uint8(19), uint16(2))
	f.Add([]byte{200, 0, 1, 0, 1, 2, 0, 1, 3, 255, 0, 4, 2, 0, 5}, uint8(19), uint8(9), uint16(4))
	f.Add([]byte{10, 1, 1, 129, 2, 2, 250, 3, 3, 1, 4, 4}, uint8(9), uint8(29), uint16(1))
	f.Add([]byte{3, 9, 9, 3, 9, 9, 3, 9, 9, 245, 9, 9}, uint8(199), uint8(49), uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, w, s uint8, cut uint16) {
		tr := fuzzTrace(data)
		width := time.Duration(1+int(w)) * 5 * time.Millisecond
		stride := time.Duration(1+int(s)) * 5 * time.Millisecond
		wantStarts, want := oracleFromTrace(tr, width, stride)

		if diff := sameRows(nil, FromTrace(tr, width, stride), wantStarts, want); diff != "" {
			t.Fatalf("FromTrace: %s", diff)
		}
		starts, rows := streamRows(tr, width, stride, true)
		if diff := sameRows(starts, rows, wantStarts, want); diff != "" {
			t.Fatalf("streamed with AdvanceTo: %s", diff)
		}

		starts, rows = nil, nil
		emit := func(start time.Duration, row []float64) {
			starts = append(starts, start)
			rows = append(rows, append([]float64(nil), row...))
		}
		c := int(cut) % (len(tr) + 1)
		inc := NewIncremental(width, stride)
		for _, r := range tr[:c] {
			inc.Push(r, emit)
		}
		inc, err := RestoreIncremental(inc.State())
		if err != nil {
			t.Fatalf("restoring at record %d: %v", c, err)
		}
		for _, r := range tr[c:] {
			inc.Push(r, emit)
		}
		inc.Flush(emit)
		if diff := sameRows(starts, rows, wantStarts, want); diff != "" {
			t.Fatalf("restored at record %d: %s", c, diff)
		}
	})
}
