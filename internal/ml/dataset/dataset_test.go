package dataset_test

import (
	"math"
	"testing"

	"ltefp/internal/ml/dataset"
	"ltefp/internal/sim"
)

func synthetic(n int, seed uint64) *dataset.Dataset {
	g := sim.NewRNG(seed)
	ds := dataset.New([]string{"a", "b", "c"}, []string{"x", "y"})
	for i := 0; i < n; i++ {
		y := g.IntN(3)
		ds.Add([]float64{g.Normal(float64(y), 1), g.Normal(-float64(y), 2)}, y)
	}
	return ds
}

func TestValidate(t *testing.T) {
	ds := synthetic(50, 1)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	ds.Y[0] = 7
	if err := ds.Validate(); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	ds.Y[0] = 0
	ds.X[0] = []float64{1}
	if err := ds.Validate(); err == nil {
		t.Fatal("ragged rows accepted")
	}
	bad := &dataset.Dataset{X: [][]float64{{1}}, Classes: []string{"a"}}
	if err := bad.Validate(); err == nil {
		t.Fatal("row/label mismatch accepted")
	}
}

func TestSplitStratified(t *testing.T) {
	ds := synthetic(1000, 2)
	train, test := ds.Split(0.8, sim.NewRNG(3))
	if train.Len()+test.Len() != ds.Len() {
		t.Fatalf("split lost rows: %d + %d != %d", train.Len(), test.Len(), ds.Len())
	}
	all := ds.ClassCounts()
	tr := train.ClassCounts()
	for c := range all {
		frac := float64(tr[c]) / float64(all[c])
		if math.Abs(frac-0.8) > 0.01 {
			t.Fatalf("class %d train fraction = %.3f, want 0.8 (stratified)", c, frac)
		}
	}
}

func TestSplitPanicsOnBadFraction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Split(1.5) did not panic")
		}
	}()
	synthetic(10, 1).Split(1.5, sim.NewRNG(1))
}

func TestSamplePerClass(t *testing.T) {
	ds := synthetic(900, 6)
	small := ds.SamplePerClass(50, sim.NewRNG(7))
	for c, n := range small.ClassCounts() {
		if n > 50 {
			t.Fatalf("class %d has %d rows after capping at 50", c, n)
		}
	}
}

func TestScaler(t *testing.T) {
	ds := synthetic(5000, 8)
	sc := dataset.FitScaler(ds)
	scaled := sc.TransformAll(ds)
	dim := ds.Dim()
	for j := 0; j < dim; j++ {
		var sum, sq float64
		for _, x := range scaled.X {
			sum += x[j]
			sq += x[j] * x[j]
		}
		n := float64(scaled.Len())
		mean := sum / n
		variance := sq/n - mean*mean
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("feature %d scaled mean = %v", j, mean)
		}
		if math.Abs(variance-1) > 1e-6 {
			t.Fatalf("feature %d scaled variance = %v", j, variance)
		}
	}
}

func TestScalerConstantFeature(t *testing.T) {
	ds := dataset.New([]string{"a"}, nil)
	ds.Add([]float64{5}, 0)
	ds.Add([]float64{5}, 0)
	sc := dataset.FitScaler(ds)
	out := sc.Transform([]float64{5})
	if math.IsNaN(out[0]) || math.IsInf(out[0], 0) {
		t.Fatalf("constant feature scaled to %v", out[0])
	}
}

func TestSubsetCopies(t *testing.T) {
	ds := synthetic(10, 9)
	sub := ds.Subset([]int{0, 1})
	sub.Y[0] = 2
	if ds.Y[0] == 2 && ds.Y[0] != synthetic(10, 9).Y[0] {
		t.Fatal("Subset shares label storage with parent")
	}
}

func TestSubsetSharesRows(t *testing.T) {
	ds := synthetic(10, 9)
	orig := ds.X[0][0]

	sub := ds.Subset([]int{0, 1})
	sub.X[0][0] = orig + 100
	if ds.X[0][0] != orig+100 {
		t.Fatal("Subset documented as sharing rows, but mutation did not propagate")
	}
}

// TestGrowReservesRows: after Grow(n), n Adds keep the rows already held
// and do not reallocate either column.
func TestGrowReservesRows(t *testing.T) {
	ds := synthetic(10, 9)
	ds.Grow(25)
	x0, y0 := &ds.X[0], &ds.Y[0]
	for i := 0; i < 25; i++ {
		ds.Add([]float64{float64(i), 0}, i%2)
	}
	if &ds.X[0] != x0 || &ds.Y[0] != y0 {
		t.Fatal("Adds after Grow reallocated the dataset")
	}
	if want := synthetic(10, 9); ds.Len() != 35 || ds.Y[3] != want.Y[3] || ds.X[3][0] != want.X[3][0] {
		t.Fatal("Grow changed the rows already held")
	}
}
