// Package knn implements brute-force k-nearest-neighbour classification
// with Euclidean distance, the second-best learner in the paper's Table
// VIII benchmark (k = 4, selected by cross-validation over k = 1..10).
package knn

import (
	"fmt"
	"math"

	"ltefp/internal/ml/dataset"
)

// Model is a fitted (memorised) kNN classifier. Inputs should be
// standardised; the model stores its own scaler.
type Model struct {
	K       int
	Classes []string

	scaler *dataset.Scaler
	x      [][]float64
	y      []int
}

// Train fits a kNN model (which memorises the standardised training set).
func Train(d *dataset.Dataset, k int) (*Model, error) {
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("knn: %w", err)
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("knn: empty training set")
	}
	if k < 1 {
		return nil, fmt.Errorf("knn: k = %d < 1", k)
	}
	if k > d.Len() {
		k = d.Len()
	}
	sc := dataset.FitScaler(d)
	scaled := sc.TransformAll(d)
	return &Model{K: k, Classes: d.Classes, scaler: sc, x: scaled.X, y: scaled.Y}, nil
}

// Predict returns the majority class among the k nearest neighbours of x
// (ties break toward the nearer neighbour's class).
func (m *Model) Predict(x []float64) int {
	q := m.scaler.Transform(x)
	// Bounded insertion into a small top-k list: k is tiny, n is large.
	type hit struct {
		d2 float64
		y  int
	}
	top := make([]hit, 0, m.K)
	worst := math.Inf(1)
	for i, row := range m.x {
		d2 := sqDist(q, row)
		if len(top) == m.K && d2 >= worst {
			continue
		}
		h := hit{d2: d2, y: m.y[i]}
		if len(top) < m.K {
			top = append(top, hit{})
		}
		j := len(top) - 1
		for j > 0 && top[j-1].d2 > h.d2 {
			top[j] = top[j-1]
			j--
		}
		top[j] = h
		worst = top[len(top)-1].d2
	}
	votes := make([]int, len(m.Classes))
	for _, h := range top {
		votes[h.y]++
	}
	best, bv := top[0].y, -1
	for c, v := range votes {
		if v > bv {
			best, bv = c, v
		}
	}
	return best
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}
