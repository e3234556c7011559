// Package dtw implements dynamic time warping (Berndt & Clifford), the
// distance the correlation attack uses to compare two users' traffic-rate
// time series. Equation (1) of the paper is the classic recurrence
//
//	D(i, j) = d(i, j) + min(D(i-1, j-1), D(i-1, j), D(i, j-1))
//
// computed here with a rolling two-row table and an optional Sakoe-Chiba
// band. Similarity converts the accumulated distance of z-normalised
// series into the (0, 1] score range the paper's Table VI reports.
package dtw

import (
	"math"
)

// Aligner computes DTW scores while reusing its normalization and DP-row
// scratch buffers across calls, so pairwise sweeps (the correlation
// attack's O(pairs²) inner loop) allocate nothing per comparison. The
// zero value is ready to use. An Aligner is not safe for concurrent use;
// parallel comparers create one per goroutine.
type Aligner struct {
	na, nb    []float64
	prev, cur []float64
}

// NewAligner returns an Aligner with empty scratch state.
func NewAligner() *Aligner { return &Aligner{} }

// DistanceBand returns the DTW distance between two series using squared
// point distance, matching the Euclidean cost matrix of Eq. (1),
// constrained to a Sakoe-Chiba band of the given half-width (band < 0
// disables the constraint). Empty inputs yield +Inf (nothing aligns with
// something), two empty inputs 0.
func DistanceBand(a, b []float64, band int) float64 {
	return NewAligner().DistanceBand(a, b, band)
}

// DistanceBand is the package-level DistanceBand reusing the aligner's
// DP-row scratch.
func (al *Aligner) DistanceBand(a, b []float64, band int) float64 {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		if n == 0 && m == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if band >= 0 {
		// The band must at least cover the length difference, or no
		// warping path exists.
		if d := n - m; d < 0 {
			if -d > band {
				band = -d
			}
		} else if d > band {
			band = d
		}
	}
	if cap(al.prev) < m+1 {
		al.prev = make([]float64, m+1)
		al.cur = make([]float64, m+1)
	}
	prev, cur := al.prev[:m+1], al.cur[:m+1]
	prev[0] = 0
	for j := 1; j <= m; j++ {
		prev[j] = math.Inf(1)
	}
	for i := 1; i <= n; i++ {
		cur[0] = math.Inf(1)
		lo, hi := 1, m
		if band >= 0 {
			if l := i - band; l > lo {
				lo = l
			}
			if h := i + band; h < hi {
				hi = h
			}
			for j := 1; j < lo; j++ {
				cur[j] = math.Inf(1)
			}
			for j := hi + 1; j <= m; j++ {
				cur[j] = math.Inf(1)
			}
		}
		for j := lo; j <= hi; j++ {
			d := a[i-1] - b[j-1]
			best := prev[j-1]
			if prev[j] < best {
				best = prev[j]
			}
			if cur[j-1] < best {
				best = cur[j-1]
			}
			cur[j] = d*d + best
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// DistanceBandEA is DistanceBand with early abandoning: when the running
// minimum of a completed DP row exceeds cutoff, no warping path can finish
// below it (every path crosses every row and costs only accumulate), so the
// computation stops and returns +Inf. A cutoff of +Inf never abandons and
// returns the exact DistanceBand result; when the computation completes,
// the returned distance is bit-identical to DistanceBand's — the abandon
// check only observes cell values, never changes them.
func DistanceBandEA(a, b []float64, band int, cutoff float64) float64 {
	return NewAligner().DistanceBandEA(a, b, band, cutoff)
}

// DistanceBandEA is the package-level DistanceBandEA reusing the aligner's
// DP-row scratch.
func (al *Aligner) DistanceBandEA(a, b []float64, band int, cutoff float64) float64 {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		if n == 0 && m == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if band >= 0 {
		if d := n - m; d < 0 {
			if -d > band {
				band = -d
			}
		} else if d > band {
			band = d
		}
	}
	if cap(al.prev) < m+1 {
		al.prev = make([]float64, m+1)
		al.cur = make([]float64, m+1)
	}
	prev, cur := al.prev[:m+1], al.cur[:m+1]
	prev[0] = 0
	for j := 1; j <= m; j++ {
		prev[j] = math.Inf(1)
	}
	for i := 1; i <= n; i++ {
		cur[0] = math.Inf(1)
		lo, hi := 1, m
		if band >= 0 {
			if l := i - band; l > lo {
				lo = l
			}
			if h := i + band; h < hi {
				hi = h
			}
			for j := 1; j < lo; j++ {
				cur[j] = math.Inf(1)
			}
			for j := hi + 1; j <= m; j++ {
				cur[j] = math.Inf(1)
			}
		}
		rowMin := math.Inf(1)
		for j := lo; j <= hi; j++ {
			d := a[i-1] - b[j-1]
			best := prev[j-1]
			if prev[j] < best {
				best = prev[j]
			}
			if cur[j-1] < best {
				best = cur[j-1]
			}
			c := d*d + best
			cur[j] = c
			if c < rowMin {
				rowMin = c
			}
		}
		if rowMin > cutoff {
			return math.Inf(1)
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// Normalize z-normalises a series into a new slice. Constant series map to
// all zeros.
func Normalize(a []float64) []float64 {
	return normalizeInto(make([]float64, len(a)), a)
}

// normalizeInto z-normalises a into out (len(out) == len(a)), returning
// out. Constant series map to all zeros.
func normalizeInto(out, a []float64) []float64 {
	if len(a) == 0 {
		return out
	}
	var mean float64
	for _, v := range a {
		mean += v
	}
	mean /= float64(len(a))
	var variance float64
	for _, v := range a {
		d := v - mean
		variance += d * d
	}
	variance /= float64(len(a))
	if variance < 1e-12 {
		for i := range out {
			out[i] = 0
		}
		return out
	}
	std := math.Sqrt(variance)
	for i, v := range a {
		out[i] = (v - mean) / std
	}
	return out
}

// Similarity returns a (0, 1] similarity score between two traffic-rate
// series: both are z-normalised, aligned under a 10% Sakoe-Chiba band, and
// the per-step alignment cost is mapped through exp(-cost). Identical
// series score 1; unrelated series decay toward 0.
func Similarity(a, b []float64) float64 {
	return NewAligner().Similarity(a, b)
}

// Similarity is the package-level Similarity reusing the aligner's
// normalization and DP-row scratch.
func (al *Aligner) Similarity(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if cap(al.na) < len(a) {
		al.na = make([]float64, len(a))
	}
	if cap(al.nb) < len(b) {
		al.nb = make([]float64, len(b))
	}
	na := normalizeInto(al.na[:len(a)], a)
	nb := normalizeInto(al.nb[:len(b)], b)
	d := al.DistanceBand(na, nb, bandFor(len(a), len(b)))
	return SimilarityFromDistance(d, len(a), len(b))
}

// similaritySharpness calibrates how fast alignment cost decays the
// similarity score; 2 places clean communicating pairs near 0.9 and
// independent same-app pairs near 0.4–0.6, the range the paper reports.
const similaritySharpness = 2

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
