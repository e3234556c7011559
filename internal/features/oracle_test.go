package features

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"ltefp/internal/trace"
)

// oracleFromTrace is the batch extractor FromTrace replaced, kept as the
// reference the differential tests and FuzzFromTrace hold FromTrace and
// Incremental to. It cuts the whole trace into windows — stride-aligned
// starts from the first record's window through the last record,
// half-open [start, start+width) — and computes every window's context
// features over the whole trace, so it shares nothing with Incremental but
// the per-window aggregate. It returns the start and row of every window
// holding records.
func oracleFromTrace(t trace.Trace, width, stride time.Duration) (starts []time.Duration, rows [][]float64) {
	if width <= 0 || stride <= 0 {
		panic(fmt.Sprintf("oracle: invalid window width %v / stride %v", width, stride))
	}
	if len(t) == 0 {
		return nil, nil
	}
	var sc scratch
	first := t[0].At - t[0].At%stride
	last := t[len(t)-1].At
	i := 0   // first record at or after the current window start
	lo := 0  // first record inside the trailing 1 s horizon
	lo3 := 0 // first record inside the trailing 3 s horizon
	var prevCount, prevBytes float64
	for start := first; start <= last; start += stride {
		end := start + width
		for i < len(t) && t[i].At < start {
			i++
		}
		j := i
		for j < len(t) && t[j].At < end {
			j++
		}
		for lo < len(t) && t[lo].At < end-time.Second {
			lo++
		}
		for lo3 < len(t) && t[lo3].At < end-3*time.Second {
			lo3++
		}
		if j == i {
			continue
		}
		v := make([]float64, TotalDim)
		sc.window(v[:Dim], start, t[i:j], width)

		gap := float64(gapCapMilliseconds)
		if i > 0 {
			g := float64((t[i].At - t[i-1].At).Microseconds()) / 1000
			if g < gap {
				gap = g
			}
		}
		v[Dim] = gap
		v[Dim+1] = prevCount
		v[Dim+2] = prevBytes

		var rb, rc float64
		for k := lo; k < len(t) && t[k].At < end; k++ {
			rb += float64(t[k].Bytes)
			rc++
		}
		v[Dim+3] = rb
		v[Dim+4] = rc

		var b3 float64
		var slotBits uint64
		slotBase := (end - 3*time.Second) / (100 * time.Millisecond)
		if slotBase < 0 {
			slotBase = 0
		}
		for k := lo3; k < len(t) && t[k].At < end; k++ {
			b3 += float64(t[k].Bytes)
			slotBits |= 1 << uint(t[k].At/(100*time.Millisecond)-slotBase)
		}
		v[Dim+5] = b3
		v[Dim+6] = float64(bits.OnesCount64(slotBits)) / 30

		starts = append(starts, start)
		rows = append(rows, v)
		prevCount = v[0]
		prevBytes = v[3]
	}
	return starts, rows
}

// windowRow returns the Dim per-window aggregates of one window.
func windowRow(start time.Duration, recs trace.Trace, width time.Duration) []float64 {
	v := make([]float64, Dim)
	var sc scratch
	sc.window(v, start, recs, width)
	return v
}

// sameRows reports the first difference between two row sets, or "".
func sameRows(gotStarts []time.Duration, got [][]float64, wantStarts []time.Duration, want [][]float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, oracle %d", len(got), len(want))
	}
	for i := range want {
		if gotStarts != nil && gotStarts[i] != wantStarts[i] {
			return fmt.Sprintf("row %d: window start %v, oracle %v", i, gotStarts[i], wantStarts[i])
		}
		if len(got[i]) != len(want[i]) {
			return fmt.Sprintf("row %d: %d features, oracle %d", i, len(got[i]), len(want[i]))
		}
		for k := range want[i] {
			// Compare bit patterns: every feature is a deterministic
			// float computation, and NaN must not compare unequal.
			if math.Float64bits(got[i][k]) != math.Float64bits(want[i][k]) {
				return fmt.Sprintf("row %d feature %s: %v, oracle %v", i, Names()[k], got[i][k], want[i][k])
			}
		}
	}
	return ""
}
