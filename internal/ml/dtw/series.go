// Lower-bound cascade for exact DTW sweeps (UCR-suite lineage: Rakthanmanon
// et al., "Searching and Mining Trillions of Time Series Subsequences under
// Dynamic Time Warping", KDD 2012). A many-user contact sweep compares every
// pair of users, so the per-pair cost is the whole game; this file adds the
// machinery that lets most pairs be rejected for O(1) or O(n) instead of the
// full O(n·band) dynamic program, without ever changing a reported score:
//
//	Series          per-user cache: z-normalised values + Sakoe-Chiba
//	                envelopes, computed once and reused across every pair
//	                the user participates in.
//	LBKim           O(1) endpoint lower bound.
//	LBKeogh         O(n) envelope lower bound (≥ LBKim by construction).
//	CascadeSimilarity LBKim → LBKeogh → early-abandoning DTW; when the pair
//	                survives, the returned similarity is bit-identical to
//	                Aligner.Similarity on the raw series.
//
// Every bound here is a true lower bound of the banded DTW distance, so
// pruning is exact: a pruned pair is provably below the similarity
// threshold, and a surviving pair's score is computed by the very same
// floating-point operations the unaccelerated path performs.
package dtw

import "math"

// Series is one user's comparison-ready rate series: the raw values, their
// z-normalisation, and the Sakoe-Chiba envelopes of the normalised values
// under the band Similarity uses for a series of this length. Build it once
// per user and reuse it across every pairwise comparison — the
// normalisation and envelope work is O(n) per user instead of O(n) per
// pair. Series is immutable after construction and safe for concurrent use
// by many aligners. It retains (does not copy) the raw slice.
type Series struct {
	raw          []float64
	norm         []float64
	upper, lower []float64
}

// NewSeries precomputes the normalisation and envelopes of raw. The
// envelope band is the 10% Sakoe-Chiba half-width Similarity applies to a
// pair of series of this length; LBKeogh therefore requires both series of
// a comparison to have equal lengths (as every sweep over a common
// [start, end) span produces) and falls back to LBKim otherwise.
func NewSeries(raw []float64) *Series {
	s := &Series{raw: raw, norm: Normalize(raw)}
	s.upper, s.lower = envelope(s.norm, bandFor(len(raw), len(raw)))
	return s
}

// Len returns the series length.
func (s *Series) Len() int { return len(s.raw) }

// Raw returns the raw values the series was built from.
func (s *Series) Raw() []float64 { return s.raw }

// bandFor is the 10% Sakoe-Chiba half-width Similarity uses for a pair of
// series of lengths n and m.
func bandFor(n, m int) int { return (max(n, m) + 9) / 10 }

// envelope computes the sliding min/max of x over windows [i-r, i+r]
// (clamped to the series) with monotonic deques — O(n) total, the
// streaming-min-max construction of Lemire (2006).
func envelope(x []float64, r int) (upper, lower []float64) {
	n := len(x)
	upper = make([]float64, n)
	lower = make([]float64, n)
	du := make([]int, 0, n) // indices of decreasing values: front is the max
	dl := make([]int, 0, n) // indices of increasing values: front is the min
	for j := 0; j < n+r; j++ {
		if j < n {
			for len(du) > 0 && x[du[len(du)-1]] <= x[j] {
				du = du[:len(du)-1]
			}
			du = append(du, j)
			for len(dl) > 0 && x[dl[len(dl)-1]] >= x[j] {
				dl = dl[:len(dl)-1]
			}
			dl = append(dl, j)
		}
		i := j - r
		if i < 0 || i >= n {
			continue
		}
		for du[0] < i-r {
			du = du[1:]
		}
		for dl[0] < i-r {
			dl = dl[1:]
		}
		upper[i] = x[du[0]]
		lower[i] = x[dl[0]]
	}
	return upper, lower
}

// LBKim is the O(1) endpoint lower bound on the banded DTW distance of the
// two normalised series: every warping path matches the first pair and the
// last pair of points exactly, so their squared distances are unavoidable.
// (When both series have a single point those two cells are the same cell,
// counted once.)
func LBKim(a, b *Series) float64 {
	na, nb := len(a.norm), len(b.norm)
	if na == 0 || nb == 0 {
		if na == 0 && nb == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d0 := a.norm[0] - b.norm[0]
	lb := d0 * d0
	if na == 1 && nb == 1 {
		return lb
	}
	dn := a.norm[na-1] - b.norm[nb-1]
	return lb + dn*dn
}

// LBKeogh is the O(n) envelope lower bound on the banded DTW distance: each
// row i of a warping path visits at least one in-band cell, whose cost is
// at least the squared excursion of q's point i outside c's envelope. The
// first and last rows use their exact endpoint cells, which makes
// LBKim ≤ LBKeogh hold by construction. It requires equal-length series
// (every sweep over a common span produces them) and falls back to LBKim
// otherwise; like LBKim it is asymmetric, and a cascade tests both
// LBKeogh(a, b) and LBKeogh(b, a).
func LBKeogh(q, c *Series) float64 {
	n := len(q.norm)
	if n != len(c.norm) || n == 0 {
		return LBKim(q, c)
	}
	d0 := q.norm[0] - c.norm[0]
	lb := d0 * d0
	if n == 1 {
		return lb
	}
	dn := q.norm[n-1] - c.norm[n-1]
	lb += dn * dn
	for i := 1; i < n-1; i++ {
		v := q.norm[i]
		if u := c.upper[i]; v > u {
			d := v - u
			lb += d * d
		} else if l := c.lower[i]; v < l {
			d := l - v
			lb += d * d
		}
	}
	return lb
}

// Stage reports how far through the lower-bound cascade a comparison went.
type Stage uint8

const (
	// StageFull means the full banded DTW ran to completion: the returned
	// similarity is exact (bit-identical to Aligner.Similarity).
	StageFull Stage = iota
	// StageLBKim means the endpoint bound alone proved the pair below the
	// threshold.
	StageLBKim
	// StageLBKeogh means the envelope bound proved the pair below the
	// threshold.
	StageLBKeogh
	// StageAbandoned means the DTW recurrence was abandoned mid-table once
	// its running row minimum exceeded the distance cutoff.
	StageAbandoned
)

// String names the stage for logs and funnel reports.
func (s Stage) String() string {
	switch s {
	case StageFull:
		return "full"
	case StageLBKim:
		return "lb_kim"
	case StageLBKeogh:
		return "lb_keogh"
	case StageAbandoned:
		return "abandoned"
	}
	return "unknown"
}

// SimilarityFromDistance maps a banded DTW distance of two z-normalised
// series of lengths n and m to the (0, 1] similarity score — exactly the
// final step of Similarity, exposed so cascade callers can finish a
// surviving comparison with the identical floating-point operations.
func SimilarityFromDistance(d float64, n, m int) float64 {
	if math.IsInf(d, 1) {
		return 0
	}
	perStep := d / float64(n+m)
	return math.Exp(-similaritySharpness * perStep)
}

// DistanceCutoff converts a similarity decision threshold into a banded-DTW
// distance cutoff for series of lengths n and m: any pair whose distance
// exceeds the cutoff has similarity strictly below minSim. The cutoff
// carries a tiny upward slack so that floating-point rounding in the
// exp/log round trip can never prune a pair the exact score would keep —
// borderline pairs fall through to the full computation instead.
// Thresholds ≤ 0 yield +Inf (nothing is prunable).
func DistanceCutoff(minSim float64, n, m int) float64 {
	if minSim <= 0 {
		return math.Inf(1)
	}
	cut := -math.Log(minSim) / similaritySharpness * float64(n+m)
	return cut*(1+1e-9) + 1e-9
}

// CascadeSimilarity is Aligner.Similarity(a.Raw(), b.Raw()) behind the
// LB_Kim → LB_Keogh → early-abandon cascade. When the returned stage is
// StageFull the similarity is exact — computed by the same operations, on
// the same precomputed normalisation, as the unaccelerated call. Any other
// stage means the pair was proven to score strictly below minSim and the
// returned similarity is 0, a placeholder callers must not report.
func (al *Aligner) CascadeSimilarity(a, b *Series, minSim float64) (float64, Stage) {
	n, m := a.Len(), b.Len()
	if n == 0 || m == 0 {
		return 0, StageFull // Similarity's empty-input contract: exact 0.
	}
	cutoff := DistanceCutoff(minSim, n, m)
	if !math.IsInf(cutoff, 1) {
		if LBKim(a, b) > cutoff {
			return 0, StageLBKim
		}
		if LBKeogh(a, b) > cutoff || LBKeogh(b, a) > cutoff {
			return 0, StageLBKeogh
		}
	}
	d := al.DistanceBandEA(a.norm, b.norm, bandFor(n, m), cutoff)
	if math.IsInf(d, 1) {
		return 0, StageAbandoned
	}
	return SimilarityFromDistance(d, n, m), StageFull
}
