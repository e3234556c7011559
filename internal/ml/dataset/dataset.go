// Package dataset provides labelled feature matrices and the splitting,
// stratification, scaling, and cross-validation utilities shared by every
// classifier in this repository.
package dataset

import (
	"fmt"
	"math"
	"slices"

	"ltefp/internal/sim"
)

// Dataset is a labelled feature matrix.
type Dataset struct {
	// X holds one feature vector per row.
	X [][]float64
	// Y holds the class index of each row.
	Y []int
	// Classes names the class indices.
	Classes []string
	// Features names the feature columns (optional, for reporting).
	Features []string
}

// New returns an empty dataset over the given classes.
func New(classes, featureNames []string) *Dataset {
	return &Dataset{Classes: classes, Features: featureNames}
}

// Add appends one labelled row.
func (d *Dataset) Add(x []float64, y int) {
	d.X = append(d.X, x)
	d.Y = append(d.Y, y)
}

// Grow reserves room for n more rows, so that many Adds do not reallocate.
func (d *Dataset) Grow(n int) {
	d.X = slices.Grow(d.X, n)
	d.Y = slices.Grow(d.Y, n)
}

// AddAll appends many rows with one label.
func (d *Dataset) AddAll(xs [][]float64, y int) {
	for _, x := range xs {
		d.Add(x, y)
	}
}

// Len returns the number of rows.
func (d *Dataset) Len() int { return len(d.X) }

// Dim returns the feature dimensionality (0 when empty).
func (d *Dataset) Dim() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Validate checks internal consistency.
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("dataset: %d rows but %d labels", len(d.X), len(d.Y))
	}
	dim := d.Dim()
	for i, x := range d.X {
		if len(x) != dim {
			return fmt.Errorf("dataset: row %d has %d features, want %d", i, len(x), dim)
		}
	}
	for i, y := range d.Y {
		if y < 0 || y >= len(d.Classes) {
			return fmt.Errorf("dataset: row %d label %d outside %d classes", i, y, len(d.Classes))
		}
	}
	return nil
}

// ClassCounts returns the per-class row counts.
func (d *Dataset) ClassCounts() []int {
	out := make([]int, len(d.Classes))
	for _, y := range d.Y {
		out[y]++
	}
	return out
}

// Subset returns a dataset containing the given rows. The row and label
// bookkeeping is fresh, but the feature vectors themselves are SHARED with
// the parent — mutating a row through either dataset is visible in both.
// Everything derived through Subset (Split, SamplePerClass) inherits this
// sharing; copy rows before mutating them in place.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := New(d.Classes, d.Features)
	out.X = make([][]float64, len(idx))
	out.Y = make([]int, len(idx))
	for i, j := range idx {
		out.X[i] = d.X[j]
		out.Y[i] = d.Y[j]
	}
	return out
}

// Shuffle permutes rows in place.
func (d *Dataset) Shuffle(rng *sim.RNG) {
	rng.Shuffle(len(d.X), func(i, j int) {
		d.X[i], d.X[j] = d.X[j], d.X[i]
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	})
}

// Split partitions the dataset into train and test sets with the given
// training fraction, stratified by class so that splits preserve class
// proportions (the paper's 80/20 protocol). Both halves share their
// feature vectors with the receiver (see Subset).
func (d *Dataset) Split(trainFrac float64, rng *sim.RNG) (train, test *Dataset) {
	if trainFrac <= 0 || trainFrac >= 1 {
		panic(fmt.Sprintf("dataset: train fraction %.3f outside (0, 1)", trainFrac))
	}
	perClass := make(map[int][]int)
	for i, y := range d.Y {
		perClass[y] = append(perClass[y], i)
	}
	var trainIdx, testIdx []int
	for y := 0; y < len(d.Classes); y++ {
		idx := perClass[y]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		cut := int(float64(len(idx)) * trainFrac)
		trainIdx = append(trainIdx, idx[:cut]...)
		testIdx = append(testIdx, idx[cut:]...)
	}
	rng.Shuffle(len(trainIdx), func(i, j int) { trainIdx[i], trainIdx[j] = trainIdx[j], trainIdx[i] })
	rng.Shuffle(len(testIdx), func(i, j int) { testIdx[i], testIdx[j] = testIdx[j], testIdx[i] })
	return d.Subset(trainIdx), d.Subset(testIdx)
}

// SamplePerClass returns a dataset holding at most n rows of each class,
// chosen uniformly — used to cap dataset sizes for expensive learners. The
// sampled rows share their feature vectors with the receiver (see Subset).
func (d *Dataset) SamplePerClass(n int, rng *sim.RNG) *Dataset {
	perClass := make(map[int][]int)
	for i, y := range d.Y {
		perClass[y] = append(perClass[y], i)
	}
	var keep []int
	for y := 0; y < len(d.Classes); y++ {
		idx := perClass[y]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		if len(idx) > n {
			idx = idx[:n]
		}
		keep = append(keep, idx...)
	}
	rng.Shuffle(len(keep), func(i, j int) { keep[i], keep[j] = keep[j], keep[i] })
	return d.Subset(keep)
}

// Scaler standardises features to zero mean and unit variance; distance-
// and gradient-based learners need it, trees do not.
type Scaler struct {
	Mean []float64
	Std  []float64
}

// FitScaler learns standardisation parameters from a dataset.
func FitScaler(d *Dataset) *Scaler {
	dim := d.Dim()
	s := &Scaler{Mean: make([]float64, dim), Std: make([]float64, dim)}
	if d.Len() == 0 {
		for j := range s.Std {
			s.Std[j] = 1
		}
		return s
	}
	n := float64(d.Len())
	for _, x := range d.X {
		for j, v := range x {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, x := range d.X {
		for j, v := range x {
			dv := v - s.Mean[j]
			s.Std[j] += dv * dv
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] < 1e-12 {
			s.Std[j] = 1
		}
	}
	return s
}

// Transform standardises one vector into a new slice.
func (s *Scaler) Transform(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.Mean[j]) / s.Std[j]
	}
	return out
}

// TransformAll standardises a whole dataset into a copy.
func (s *Scaler) TransformAll(d *Dataset) *Dataset {
	out := New(d.Classes, d.Features)
	out.X = make([][]float64, d.Len())
	out.Y = make([]int, d.Len())
	copy(out.Y, d.Y)
	for i, x := range d.X {
		out.X[i] = s.Transform(x)
	}
	return out
}
