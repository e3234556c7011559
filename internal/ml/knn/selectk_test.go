package knn

import (
	"fmt"

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
	fs := d.KFold(folds, rng)
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
