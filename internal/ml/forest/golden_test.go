package forest_test

import (
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"ltefp/internal/ml/dataset"
	"ltefp/internal/ml/forest"
	"ltefp/internal/sim"
	"ltefp/internal/snapshot"
)

// goldenDataset is a fixed 4-class dataset with deliberate duplicate
// feature values, so threshold tie-handling is covered.
func goldenDataset() *dataset.Dataset {
	g := sim.NewRNG(42)
	ds := dataset.New([]string{"a", "b", "c", "d"}, nil)
	for i := 0; i < 600; i++ {
		y := i % 4
		x := make([]float64, 12)
		for j := range x {
			x[j] = g.Normal(float64(y*(j%3)), 1.5)
		}
		if i%7 == 0 {
			x[3] = float64(y)
		}
		ds.Add(x, y)
	}
	return ds
}

// tieDataset is a 5-class dataset whose columns are small integers, so
// nearly every column position ties with its neighbours, plus one constant
// column that can never split.
func tieDataset() *dataset.Dataset {
	g := sim.NewRNG(17)
	ds := dataset.New([]string{"a", "b", "c", "d", "e"}, nil)
	for i := 0; i < 450; i++ {
		y := i % 5
		x := make([]float64, 9)
		for j := range x {
			x[j] = float64(g.IntN(4) + y*(j%3))
		}
		x[5] = 3
		ds.Add(x, y)
	}
	return ds
}

// fileNode is one node as the model file spells it (see forest.Encode).
type fileNode struct {
	feature     int64
	threshold   float64
	left, right int64
	dist        []float32
}

// fileTrees reads a forest's trees back out of its encoding, field by
// field, so tests see the trained trees in the file's own terms: each node
// as the v1 layout spelled it, which the golden digests were recorded
// over. A leaf is feature -1 with a zero threshold and children.
func fileTrees(t testing.TB, f *forest.Forest) [][]fileNode {
	t.Helper()
	e := snapshot.NewEncoder(1 << 12)
	forest.Encode(e, f)
	d := snapshot.NewDecoder(e.Bytes())
	if layout := d.Raw(1); layout == nil || layout[0] != 2 {
		t.Fatalf("forest encoded with layout %v, want 2", layout)
	}
	classes := int(d.Uvarint())
	for i := 0; i < classes; i++ {
		d.Str()
	}
	roots := make([]int, d.Uvarint())
	nodes := int(d.Uvarint())
	d.Uvarint() // leaf count
	for i := range roots {
		roots[i] = int(d.U32())
	}
	trees := make([][]fileNode, len(roots))
	for ti := range trees {
		end := nodes
		if ti+1 < len(roots) {
			end = roots[ti+1]
		}
		trees[ti] = make([]fileNode, end-roots[ti])
		for j := range trees[ti] {
			n := &trees[ti][j]
			key, feat, right := d.U64(), int32(d.U32()), int64(int32(d.U32()))
			if right == int64(j) {
				n.feature = -1
				n.dist = make([]float32, classes)
				continue
			}
			n.feature = int64(feat)
			n.threshold = forest.KeyFloat(key)
			n.left = int64(j + 1)
			n.right = right
			n.dist = []float32{}
		}
	}
	for _, nodes := range trees {
		for j := range nodes {
			for k := range nodes[j].dist {
				nodes[j].dist[k] = d.F32()
			}
		}
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return trees
}

// hashForest folds every structural and numeric detail of the trained
// trees — node order, features, threshold bits, links, distribution bits —
// into one FNV-1a digest.
func hashForest(t testing.TB, f *forest.Forest) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put32 := func(v uint32) {
		buf[0] = byte(v)
		buf[1] = byte(v >> 8)
		buf[2] = byte(v >> 16)
		buf[3] = byte(v >> 24)
		h.Write(buf[:4])
	}
	put64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:8])
	}
	for _, nodes := range fileTrees(t, f) {
		put32(uint32(len(nodes)))
		for _, n := range nodes {
			put32(uint32(n.feature))
			put64(math.Float64bits(n.threshold))
			put32(uint32(n.left))
			put32(uint32(n.right))
			put32(uint32(len(n.dist)))
			for _, d := range n.dist {
				put32(math.Float32bits(d))
			}
		}
	}
	return h.Sum64()
}

// TestGoldenTrees pins the trained forests to digests recorded from the
// original sort-per-node implementation: the presorted-column trainer must
// produce bit-identical trees. Do not update these constants to make the
// test pass — a mismatch means training semantics changed.
func TestGoldenTrees(t *testing.T) {
	ds := goldenDataset()
	for _, tc := range []struct {
		cfg  forest.Config
		want uint64
	}{
		{forest.Config{Trees: 12, Seed: 7}, 0xfb9d31037b32f666},
		{forest.Config{Trees: 5, Seed: 1, MaxDepth: 6, MinLeaf: 4}, 0x13baaf8f96eccade},
		{forest.Config{Trees: 3, Seed: 99, FeaturesPerSplit: 12, SubsampleSize: 200}, 0x814cff2269fff87a},
	} {
		f, err := forest.Train(ds, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := hashForest(t, f); got != tc.want {
			t.Errorf("cfg %+v: forest hash %#x, want golden %#x", tc.cfg, got, tc.want)
		}
	}
	// Heavy ties and a constant column, with a bootstrap smaller than the
	// dataset; recorded from the trainer that sized its columns at S.
	f, err := forest.Train(tieDataset(), forest.Config{Trees: 8, Seed: 3, MinLeaf: 1, SubsampleSize: 300})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hashForest(t, f), uint64(0xf06b9a381cc128df); got != want {
		t.Errorf("tie dataset: forest hash %#x, want golden %#x", got, want)
	}
}

// TestWorkersDoNotChangeTrees: the same seed yields bit-identical forests
// at Workers=1 and Workers=GOMAXPROCS (and beyond), so parallel training
// never leaks scheduling into the model.
func TestWorkersDoNotChangeTrees(t *testing.T) {
	ds := goldenDataset()
	base, err := forest.Train(ds, forest.Config{Trees: 9, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := hashForest(t, base)
	for _, w := range []int{runtime.GOMAXPROCS(0), 4, 13} {
		f, err := forest.Train(ds, forest.Config{Trees: 9, Seed: 5, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if got := hashForest(t, f); got != want {
			t.Errorf("Workers=%d: forest hash %#x != Workers=1 hash %#x", w, got, want)
		}
	}
}

// TestPredictBatchMatchesPredict: the tree-major batched path must return
// exactly what the per-row oracle (oracle_test.go) returns, including
// normalisation and tie-break behaviour.
func TestPredictBatchMatchesPredict(t *testing.T) {
	ds := goldenDataset()
	f, err := forest.Train(ds, forest.Config{Trees: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := f.PredictBatch(ds.X)
	if len(got) != ds.Len() {
		t.Fatalf("batch returned %d predictions for %d rows", len(got), ds.Len())
	}
	for i, x := range ds.X {
		if want := f.PredictOracle(x); got[i] != want {
			t.Fatalf("row %d: batch predicted %d, oracle %d", i, got[i], want)
		}
	}
	// Every batch size below the interleaving width takes a different
	// remainder path through predictChunk; cover them all.
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 9, 15, 16, 17, 18, 19, 21, 33} {
		sub := ds.X[:n]
		got := f.PredictBatch(sub)
		for i, x := range sub {
			if want := f.PredictOracle(x); got[i] != want {
				t.Fatalf("size %d row %d: batch predicted %d, oracle %d", n, i, got[i], want)
			}
		}
	}
}
