package forest

import (
	"math"
	"testing"

	"ltefp/internal/ml/dataset"
	"ltefp/internal/sim"
)

// This file is the forest's per-row reference path. Production prediction
// is the batched lane kernels alone (batch.go); the oracle here walks one
// row at a time with a plain loop, so the tests can check the kernels'
// branch-free selects, lane bookkeeping and chunking against it.

// keyFloat inverts orderedKey, returning the threshold a node's key was
// made from (a -0 threshold comes back as +0, which splits identically).
func keyFloat(k uint64) float64 {
	const sign = 1 << 63
	if k&sign != 0 {
		return math.Float64frombits(k &^ sign)
	}
	return math.Float64frombits(^k)
}

// descend walks x from node i down to its leaf and returns the leaf's
// index. It compares the same ordered keys as the lane kernels, so a row
// lands on the same leaf whichever path classifies it.
func (f *Forest) descend(i int32, x []float64) int32 {
	for {
		n := f.nodes[i]
		if n.right == i {
			return i
		}
		if orderedKey(x[n.feat]) <= n.key {
			i++
		} else {
			i = n.right
		}
	}
}

// votesOracle sums the trees' leaf distributions for x in tree order, as
// the kernels do.
func (f *Forest) votesOracle(x []float64) []float64 {
	out := make([]float64, len(f.Classes))
	for _, root := range f.roots {
		for c, p := range f.leaf(f.descend(root, x)) {
			out[c] += p
		}
	}
	return out
}

// ProbaOracle returns the soft-voted class distribution for x.
func (f *Forest) ProbaOracle(x []float64) []float64 {
	p := f.votesOracle(x)
	normalizeArgmax(p)
	return p
}

// PredictOracle returns the most probable class index for x.
func (f *Forest) PredictOracle(x []float64) int {
	return normalizeArgmax(f.votesOracle(x))
}

// OOBError estimates generalisation error without a held-out set: each
// row is scored only by the trees whose bootstrap sample did not contain
// it. Because per-tree bootstrap membership is reproducible from the
// training configuration (treeRNG), the caller passes the same dataset
// and config used for Train.
func OOBError(d *dataset.Dataset, cfg Config) (float64, error) {
	if err := d.Validate(); err != nil {
		return 0, err
	}
	f, err := Train(d, cfg)
	if err != nil {
		return 0, err
	}
	cfg = cfg.withDefaults(d.Len(), d.Dim())

	votes := make([][]float64, d.Len())
	for i := range votes {
		votes[i] = make([]float64, len(d.Classes))
	}
	inBag := make([]bool, d.Len())
	for tIdx, root := range f.roots {
		// Reconstruct this tree's bootstrap sample.
		rng := treeRNG(cfg.Seed, tIdx)
		for i := range inBag {
			inBag[i] = false
		}
		for i := 0; i < cfg.SubsampleSize; i++ {
			inBag[rng.IntN(d.Len())] = true
		}
		for row := range d.X {
			if inBag[row] {
				continue
			}
			for c, p := range f.leaf(f.descend(root, d.X[row])) {
				votes[row][c] += p
			}
		}
	}
	wrong, scored := 0, 0
	for row, v := range votes {
		best, bv, any := 0, 0.0, false
		for c, p := range v {
			if p > 0 {
				any = true
			}
			if p > bv {
				best, bv = c, p
			}
		}
		if !any {
			continue // row was in every bag (vanishingly rare)
		}
		scored++
		if best != d.Y[row] {
			wrong++
		}
	}
	if scored == 0 {
		return 0, nil
	}
	return float64(wrong) / float64(scored), nil
}

// oracleDataset draws a random dataset heavy in ties: values come from a
// handful of levels per feature, some columns are constant, and rows
// repeat, so the kernels meet keys equal to node thresholds.
func oracleDataset(g *sim.RNG, n, dim, classes int) *dataset.Dataset {
	names := make([]string, classes)
	for c := range names {
		names[c] = string(rune('a' + c))
	}
	ds := dataset.New(names, nil)
	for i := 0; i < n; i++ {
		y := g.IntN(classes)
		if i > 0 && g.IntN(8) == 0 {
			ds.Add(append([]float64(nil), ds.X[i-1]...), y)
			continue
		}
		x := make([]float64, dim)
		for j := range x {
			switch j % 4 {
			case 0:
				x[j] = float64(g.IntN(4)) // few levels: many ties
			case 1:
				x[j] = g.Normal(float64(y), 1)
			case 2:
				x[j] = -1.5 // constant column
			default:
				x[j] = math.Round(g.Normal(float64(2*y), 2))
			}
		}
		ds.Add(x, y)
	}
	return ds
}

// TestLaneKernelsMatchOracle: the batch kernels (16- and 4-lane, pair and
// single-row tails, chunked or not) accumulate bit-for-bit the
// distribution the per-row oracle computes, and return its argmax, on
// random forests over tie-heavy data and on probe rows that hit node
// thresholds exactly.
func TestLaneKernelsMatchOracle(t *testing.T) {
	g := sim.NewRNG(17)
	for trial := 0; trial < 12; trial++ {
		dim := 1 + g.IntN(9)
		classes := 2 + g.IntN(4)
		ds := oracleDataset(g, 40+g.IntN(300), dim, classes)
		f, err := Train(ds, Config{
			Trees:    1 + g.IntN(12),
			MaxDepth: 1 + g.IntN(12),
			MinLeaf:  1 + g.IntN(3),
			Seed:     g.Uint64(),
		})
		if err != nil {
			t.Fatal(err)
		}
		// Probe with the training rows and with fresh rows whose values
		// sit on the trained thresholds themselves.
		X := append([][]float64(nil), ds.X...)
		for i := 0; i < 64; i++ {
			x := make([]float64, dim)
			for j := range x {
				x[j] = g.Normal(0, 3)
			}
			for k := 0; k < 3; k++ {
				at := int32(g.IntN(len(f.nodes)))
				if n := f.nodes[at]; n.right != at {
					x[n.feat] = keyFloat(n.key)
				}
			}
			X = append(X, x)
		}
		for _, n := range []int{1, 2, 3, 4, 5, 7, 15, 16, 17, 19, 33, len(X)} {
			n = min(n, len(X))
			sub := X[:n]
			keys := make([]uint64, n*dim)
			probs := make([]float64, n*classes)
			out := make([]int, n)
			f.predictChunk(sub, keys, probs, out)
			batch := f.PredictBatch(sub)
			for r, x := range sub {
				want := f.ProbaOracle(x)
				got := probs[r*classes : (r+1)*classes]
				for c := range want {
					if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
						t.Fatalf("trial %d, %d rows, row %d class %d: kernel %v, oracle %v", trial, n, r, c, got[c], want[c])
					}
				}
				if wantIdx := f.PredictOracle(x); out[r] != wantIdx || batch[r] != wantIdx {
					t.Fatalf("trial %d, %d rows, row %d: kernel %d, batch %d, oracle %d", trial, n, r, out[r], batch[r], wantIdx)
				}
			}
		}
	}
}

// TestFeaturelessRows: a forest trained on zero-feature rows is all bare
// leaves, and the batch path gives every row the oracle's vote.
func TestFeaturelessRows(t *testing.T) {
	ds := dataset.New([]string{"a", "b", "c"}, nil)
	for i := 0; i < 30; i++ {
		ds.Add([]float64{}, i%3/2)
	}
	f, err := Train(ds, Config{Trees: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := f.PredictOracle(ds.X[0])
	for r, got := range f.PredictBatch(ds.X) {
		if got != want {
			t.Fatalf("row %d: batch %d, oracle %d", r, got, want)
		}
	}
}
