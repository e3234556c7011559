// Package features turns windowed radio traces into the fixed-length
// vectors the classifiers consume. The feature families follow the paper's
// Table II — time vector (interarrival and cumulative time), size vector
// (transport block sizes), direction vector (uplink/downlink) — aggregated
// per sliding window; the RNTI identity vector is used upstream for
// grouping, not as a model input.
package features

import (
	"math"
	"math/bits"
	"slices"
	"time"

	"ltefp/internal/lte/dci"
	"ltefp/internal/obs"
	"ltefp/internal/trace"
)

// baseNames lists the per-window features in vector order.
var baseNames = []string{
	"frame_count",
	"dl_count",
	"ul_count",
	"total_bytes",
	"dl_bytes",
	"ul_bytes",
	"size_mean",
	"size_std",
	"size_min",
	"size_max",
	"iat_mean",
	"iat_std",
	"iat_max",
	"cumulative_time",
	"dl_byte_ratio",
	"burstiness",
	"active_fraction",
	"size_p50",
}

// contextNames lists the cross-window context features appended to the
// per-window ones: burst cadence is invisible inside a single 100 ms
// window, so the extractor also looks at the trace's recent past — the gap
// since the previous frame, the previous window's volume, and the trailing
// one-second rate. These are still pure radio-layer observables.
var contextNames = []string{
	"gap_prev_ms",
	"prev_count",
	"prev_bytes",
	"rate_1s_bytes",
	"rate_1s_count",
	"bytes_3s",
	"active_frac_3s",
}

// Dim is the length of a per-window feature vector.
const Dim = 18

// ContextDim is the number of appended cross-window features.
const ContextDim = 7

// TotalDim is the length of vectors produced by FromTrace.
const TotalDim = Dim + ContextDim

// Names returns the FromTrace feature names in vector order.
func Names() []string {
	out := make([]string, 0, TotalDim)
	out = append(out, baseNames...)
	return append(out, contextNames...)
}

// gapCapMilliseconds bounds the gap feature (and encodes "no previous
// activity" for the first window).
const gapCapMilliseconds = 10000

// FromTrace extracts one TotalDim feature vector per non-empty window of
// the trace: the Dim per-window aggregates plus the ContextDim trailing
// context features. It pushes every record through an Incremental and
// flushes it, so batch and streaming extraction share one definition of
// every feature. It panics if width or stride is not positive.
//
// The rows are cut from one backing array, each with its capacity capped
// at its length, so appending to a row reallocates it instead of
// overwriting the next. A trace without records yields nil.
func FromTrace(t trace.Trace, width, stride time.Duration) [][]float64 {
	m := activeMetrics.Load()
	var timer obs.Timer
	if m != nil {
		timer = m.extractMS.Start()
	}
	inc := NewIncremental(width, stride)
	backing := make([]float64, 0, windowCount(t, width, stride)*TotalDim)
	emit := func(_ time.Duration, row []float64) { backing = append(backing, row...) }
	for _, r := range t {
		inc.Push(r, emit)
	}
	inc.Flush(emit)
	var out [][]float64
	if n := len(backing) / TotalDim; n > 0 {
		out = make([][]float64, n)
		for i := range out {
			out[i] = backing[i*TotalDim : (i+1)*TotalDim : (i+1)*TotalDim]
		}
	}
	if m != nil {
		m.rows.Add(int64(len(out)))
		timer.Stop()
	}
	return out
}

// windowCount returns how many windows of the geometry hold a record of
// the time-ordered trace t, which is how many rows FromTrace emits: it
// walks the window starts Incremental walks, from the first record's
// stride-aligned window through the last record.
func windowCount(t trace.Trace, width, stride time.Duration) int {
	if len(t) == 0 {
		return 0
	}
	n, i := 0, 0
	for start := t[0].At - t[0].At%stride; start <= t[len(t)-1].At; start += stride {
		for i < len(t) && t[i].At < start {
			i++
		}
		if i < len(t) && t[i].At < start+width {
			n++
		}
	}
	return n
}

// scratch is the per-window aggregate's reusable space: the size buffer
// the median sorts and the 1 ms occupancy bitset. Reusing it keeps
// sustained extraction from allocating per window.
type scratch struct {
	sizes []float64
	occ   []uint64
}

// window fills v (len Dim, zeroed) with the aggregates of the window
// opening at start that holds recs. width is the window width (it bounds
// time features for sparse windows). An empty window leaves v zero.
func (s *scratch) window(v []float64, start time.Duration, recs []trace.Record, width time.Duration) {
	if len(recs) == 0 {
		return
	}
	if cap(s.sizes) < len(recs) {
		s.sizes = make([]float64, len(recs))
	}
	var (
		dlCount, ulCount float64
		dlBytes, ulBytes float64
		sizes            = s.sizes[:len(recs)]
		sumSize, sumSq   float64
		minSize          = math.Inf(1)
		maxSize          float64
	)
	for i, r := range recs {
		b := float64(r.Bytes)
		sizes[i] = b
		sumSize += b
		sumSq += b * b
		if b < minSize {
			minSize = b
		}
		if b > maxSize {
			maxSize = b
		}
		if r.Dir == dci.Downlink {
			dlCount++
			dlBytes += b
		} else {
			ulCount++
			ulBytes += b
		}
	}
	n := float64(len(recs))
	meanSize := sumSize / n
	varSize := sumSq/n - meanSize*meanSize
	if varSize < 0 {
		varSize = 0
	}

	// Interarrival times in milliseconds.
	var iatMean, iatStd, iatMax, cum float64
	if len(recs) >= 2 {
		var sum, sumSq2 float64
		k := float64(len(recs) - 1)
		for i := 1; i < len(recs); i++ {
			d := float64((recs[i].At - recs[i-1].At).Microseconds()) / 1000
			sum += d
			sumSq2 += d * d
			if d > iatMax {
				iatMax = d
			}
		}
		iatMean = sum / k
		v2 := sumSq2/k - iatMean*iatMean
		if v2 < 0 {
			v2 = 0
		}
		iatStd = math.Sqrt(v2)
		cum = sum
	} else {
		// A lone record: the only time information is the window itself.
		iatMean = float64(width.Microseconds()) / 1000
	}

	burst := 0.0
	if iatMean > 0 {
		burst = iatStd / iatMean
	}

	// Fraction of 1 ms bins inside the window holding at least one record,
	// counted in a reusable bitset instead of a per-window set.
	bins := int(width / time.Millisecond)
	if bins < 1 {
		bins = 1
	}
	words := bins/64 + 1
	if cap(s.occ) < words {
		s.occ = make([]uint64, words)
	}
	occ := s.occ[:words]
	for i := range occ {
		occ[i] = 0
	}
	for _, r := range recs {
		idx := int((r.At - start) / time.Millisecond)
		if idx < 0 {
			idx = 0
		} else if idx > bins {
			idx = bins
		}
		occ[idx/64] |= 1 << uint(idx%64)
	}
	occupied := 0
	for _, word := range occ {
		occupied += bits.OnesCount64(word)
	}
	active := float64(occupied) / float64(bins)

	v[0] = n
	v[1] = dlCount
	v[2] = ulCount
	v[3] = sumSize
	v[4] = dlBytes
	v[5] = ulBytes
	v[6] = meanSize
	v[7] = math.Sqrt(varSize)
	v[8] = minSize
	v[9] = maxSize
	v[10] = iatMean
	v[11] = iatStd
	v[12] = iatMax
	v[13] = cum
	if sumSize > 0 {
		v[14] = dlBytes / sumSize
	}
	v[15] = burst
	v[16] = active
	v[17] = median(sizes)
}

// median computes the median, reordering its argument.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}
