package knn

import (
	"fmt"
	"testing"

	"ltefp/internal/ml/dataset"
	"ltefp/internal/sim"
)

// SelectK reproduces the paper's model selection: it evaluates k = 1..kMax
// by cross-validated accuracy and returns the best k.
func SelectK(d *dataset.Dataset, kMax, folds int, rng *sim.RNG) (int, error) {
	if err := d.Validate(); err != nil {
		return 0, fmt.Errorf("knn: %w", err)
	}
	bestK, bestAcc := 1, -1.0
	fs := kFold(d, folds, rng)
	for k := 1; k <= kMax; k++ {
		correct, total := 0, 0
		for _, f := range fs {
			m, err := Train(f.Train, k)
			if err != nil {
				return 0, err
			}
			for i, x := range f.Test.X {
				if m.Predict(x) == f.Test.Y[i] {
					correct++
				}
				total++
			}
		}
		if acc := float64(correct) / float64(total); acc > bestAcc {
			bestK, bestAcc = k, acc
		}
	}
	return bestK, nil
}

// fold is one cross-validation fold.
type fold struct {
	Train *dataset.Dataset
	Test  *dataset.Dataset
}

// kFold returns k stratified folds of d. Every fold shares its feature
// vectors with d (see dataset.Subset).
func kFold(d *dataset.Dataset, k int, rng *sim.RNG) []fold {
	if k < 2 {
		panic("knn: k-fold needs k >= 2")
	}
	perClass := make(map[int][]int)
	for i, y := range d.Y {
		perClass[y] = append(perClass[y], i)
	}
	assign := make([]int, len(d.Y)) // row → fold
	for _, idx := range perClass {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for i, row := range idx {
			assign[row] = i % k
		}
	}
	folds := make([]fold, k)
	for f := 0; f < k; f++ {
		var trainIdx, testIdx []int
		for row, fa := range assign {
			if fa == f {
				testIdx = append(testIdx, row)
			} else {
				trainIdx = append(trainIdx, row)
			}
		}
		folds[f] = fold{Train: d.Subset(trainIdx), Test: d.Subset(testIdx)}
	}
	return folds
}

func TestKFoldPartition(t *testing.T) {
	g := sim.NewRNG(4)
	ds := dataset.New([]string{"a", "b", "c"}, []string{"x", "y"})
	for i := 0; i < 300; i++ {
		y := g.IntN(3)
		ds.Add([]float64{g.Normal(float64(y), 1), g.Normal(-float64(y), 2)}, y)
	}
	folds := kFold(ds, 5, sim.NewRNG(5))
	if len(folds) != 5 {
		t.Fatalf("%d folds", len(folds))
	}
	testTotal := 0
	for _, f := range folds {
		testTotal += f.Test.Len()
		if f.Train.Len()+f.Test.Len() != ds.Len() {
			t.Fatal("fold does not partition the dataset")
		}
	}
	if testTotal != ds.Len() {
		t.Fatalf("test folds cover %d rows, want %d", testTotal, ds.Len())
	}
}
