// Package correlation implements Attack III of the paper: deciding whether
// two users are talking to each other from nothing but their radio-layer
// traffic patterns. Each user's trace is reduced to a per-second
// traffic-rate series (the paper's T_w = 1 s windows of T_a frames), pairs
// of series are compared with dynamic time warping (Eq. 1, Table VI), and a
// logistic regression over the similarity evidence decides contact versus
// coincidence (Table VII).
package correlation

import (
	"fmt"
	"math"
	"time"

	"ltefp/internal/lte/dci"
	"ltefp/internal/ml/dtw"
	"ltefp/internal/ml/logreg"
	"ltefp/internal/trace"
)

// DefaultBin is the paper's default similarity window T_w.
const DefaultBin = time.Second

// Evidence is the per-pair feature vector the contact classifier consumes,
// plus the ground-truth label used in training and evaluation.
type Evidence struct {
	// Similarity is D(T_w, T_a): the DTW similarity of the two users'
	// frame-rate series — the quantity Table VI reports.
	Similarity float64
	// ByteSimilarity is the DTW similarity of the byte-rate series.
	ByteSimilarity float64
	// CrossUD is the peak normalised cross-correlation between one side's
	// uplink byte rate and the other side's downlink byte rate (what A
	// sends, B receives).
	CrossUD float64
	// VolumeRatio is min/max of the two users' total traffic volumes.
	VolumeRatio float64

	// Communicating is the ground truth.
	Communicating bool
}

// vector flattens the evidence for the logistic regression.
func (e Evidence) vector() []float64 {
	return []float64{e.Similarity, e.ByteSimilarity, e.CrossUD, e.VolumeRatio}
}

// featureNames names the evidence features.
var featureNames = []string{"dtw_rate", "dtw_bytes", "cross_ud", "volume_ratio"}

// PairEvidence computes the evidence for two users' traces over the common
// span [start, end).
func PairEvidence(a, b trace.Trace, bin, start, end time.Duration) Evidence {
	return PairEvidenceWith(dtw.NewAligner(), a, b, bin, start, end)
}

// PairEvidenceWith is PairEvidence reusing a caller-owned DTW aligner, so
// pairwise sweeps amortise the normalization and DP-row buffers across
// every comparison. The aligner must not be shared between goroutines.
//
// A degenerate comparison — non-positive bin or an empty span (end <=
// start) — returns the zero Evidence. Callers must treat that as "no
// comparison was made", not as measured dissimilarity: before this guard,
// such spans produced empty rate series whose zero scores were fed to the
// contact classifier as if they were real observations.
func PairEvidenceWith(al *dtw.Aligner, a, b trace.Trace, bin, start, end time.Duration) Evidence {
	if bin <= 0 || end <= start {
		return Evidence{}
	}
	sa := buildSide(a, bin, start, end)
	sb := buildSide(b, bin, start, end)
	ev, _ := evidenceBetween(al, &sa, &sb)
	return ev
}

// side is one user's comparison-ready view of a span: the four rate series
// every pairwise comparison consumes plus the total volume. It used to be
// rebuilt eight-series-at-a-time inside every PairEvidenceWith call (four
// FilterDirection copies per pair); building it once per user and reusing
// it across all of that user's pairs is what makes the many-user sweep's
// per-pair work start at the DTW cascade instead of at trace scans.
type side struct {
	rate, bytes []float64 // per-bin frame counts and byte volumes
	ul, dl      []float64 // per-bin byte volumes split by direction
	vol         float64   // sum of bytes — the volume-ratio input
}

// buildSide reduces a trace to its comparison series in a single pass.
// The per-bin accumulation visits records in trace order, so every bin
// holds the same float, bit for bit, as a separate per-series reduction
// over the direction-filtered trace would.
func buildSide(t trace.Trace, bin, start, end time.Duration) side {
	if bin <= 0 {
		panic("correlation: non-positive bin")
	}
	n := int((end - start + bin - 1) / bin)
	if n <= 0 {
		return side{}
	}
	s := side{
		rate:  make([]float64, n),
		bytes: make([]float64, n),
		ul:    make([]float64, n),
		dl:    make([]float64, n),
	}
	for _, r := range t {
		if r.At < start || r.At >= end {
			continue
		}
		i := int((r.At - start) / bin)
		s.rate[i]++
		s.bytes[i] += float64(r.Bytes)
		switch r.Dir {
		case dci.Uplink:
			s.ul[i] += float64(r.Bytes)
		case dci.Downlink:
			s.dl[i] += float64(r.Bytes)
		}
	}
	s.vol = sum(s.bytes)
	return s
}

// evidenceBetween assembles the full evidence for two prepared sides. The
// returned Stage is always dtw.StageFull here (the rate similarity is
// computed unconditionally); cascadeEvidence is the pruning variant.
func evidenceBetween(al *dtw.Aligner, a, b *side) (Evidence, dtw.Stage) {
	return finishEvidence(al, a, b, al.Similarity(a.rate, b.rate)), dtw.StageFull
}

// finishEvidence completes an Evidence whose frame-rate similarity has
// already been computed (by the plain path or by a surviving cascade —
// both produce the identical value).
func finishEvidence(al *dtw.Aligner, a, b *side, rateSim float64) Evidence {
	cross := math.Max(peakCrossCorr(a.ul, b.dl, 3), peakCrossCorr(b.ul, a.dl, 3))
	ratio := 0.0
	if a.vol > 0 && b.vol > 0 {
		ratio = math.Min(a.vol, b.vol) / math.Max(a.vol, b.vol)
	}
	return Evidence{
		Similarity:     rateSim,
		ByteSimilarity: al.Similarity(a.bytes, b.bytes),
		CrossUD:        cross,
		VolumeRatio:    ratio,
	}
}

// peakCrossCorr returns the maximum Pearson correlation between x and y
// over integer lags in [-maxLag, maxLag], clamped to [0, 1].
func peakCrossCorr(x, y []float64, maxLag int) float64 {
	best := 0.0
	for lag := -maxLag; lag <= maxLag; lag++ {
		if c := corrAtLag(x, y, lag); c > best {
			best = c
		}
	}
	return best
}

// corrAtLag computes Pearson correlation of x[i] against y[i+lag]. Two
// passes over the overlap replace the old paired-slice copies, keeping the
// float accumulation order (and therefore the result bits) identical.
func corrAtLag(x, y []float64, lag int) float64 {
	var sumX, sumY float64
	n := 0
	for i := range x {
		j := i + lag
		if j < 0 || j >= len(y) {
			continue
		}
		sumX += x[i]
		sumY += y[j]
		n++
	}
	if n < 3 {
		return 0
	}
	mx, my := sumX/float64(n), sumY/float64(n)
	var num, dx, dy float64
	for i := range x {
		j := i + lag
		if j < 0 || j >= len(y) {
			continue
		}
		a, b := x[i]-mx, y[j]-my
		num += a * b
		dx += a * a
		dy += b * b
	}
	if dx <= 0 || dy <= 0 {
		return 0
	}
	return num / math.Sqrt(dx*dy)
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// Model is the trained contact classifier.
type Model struct {
	lr *logreg.Model
}

// classNames for the binary decision.
var classNames = []string{"independent", "communicating"}

// TrainModel fits the logistic regression on labelled evidence.
func TrainModel(samples []Evidence, seed uint64) (*Model, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("correlation: no training samples")
	}
	ds := newEvidenceDataset(samples)
	m, err := logreg.Train(ds, logreg.Config{C: 1, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("correlation: %w", err)
	}
	return &Model{lr: m}, nil
}

// Predict reports whether the evidence indicates contact.
func (m *Model) Predict(e Evidence) bool {
	return m.lr.Predict(e.vector()) == 1
}

// Score returns the model's contact probability.
func (m *Model) Score(e Evidence) float64 {
	return m.lr.PredictProba(e.vector())[1]
}
