package forest_test

import (
	"testing"

	"ltefp/internal/ml/dataset"
	"ltefp/internal/ml/forest"
	"ltefp/internal/sim"
)

func TestOOBErrorTracksGeneralisation(t *testing.T) {
	g := sim.NewRNG(3)
	easy := dataset.New([]string{"a", "b"}, nil)
	hard := dataset.New([]string{"a", "b"}, nil)
	for i := 0; i < 400; i++ {
		y := i % 2
		easy.Add([]float64{g.Normal(float64(8*y), 1)}, y)
		hard.Add([]float64{g.Normal(float64(y), 4)}, y) // heavy overlap
	}
	cfg := forest.Config{Trees: 25, Seed: 1}
	easyErr, err := forest.OOBError(easy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hardErr, err := forest.OOBError(hard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if easyErr > 0.05 {
		t.Fatalf("OOB error on separable data = %.3f", easyErr)
	}
	if hardErr <= easyErr {
		t.Fatalf("OOB error did not grow with class overlap: easy %.3f, hard %.3f", easyErr, hardErr)
	}
	if hardErr < 0.15 || hardErr > 0.6 {
		t.Fatalf("OOB error on overlapping data = %.3f, expected a substantial rate", hardErr)
	}
}

func TestOOBErrorRejectsBadData(t *testing.T) {
	bad := dataset.New([]string{"a"}, nil)
	bad.Add([]float64{1}, 0)
	bad.Y[0] = 3
	if _, err := forest.OOBError(bad, forest.Config{Trees: 2}); err == nil {
		t.Fatal("invalid dataset accepted")
	}
}
