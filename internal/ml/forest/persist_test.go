package forest_test

import (
	"bytes"
	"errors"
	"testing"

	"ltefp/internal/ml/forest"
	"ltefp/internal/snapshot"
)

func encode(f *forest.Forest) []byte {
	e := snapshot.NewEncoder(1 << 12)
	forest.Encode(e, f)
	return e.Bytes()
}

// TestEncodeDecodeRoundTrip: a decoded forest re-encodes to the same
// bytes and predicts exactly what the trained one does.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	ds := goldenDataset()
	f, err := forest.Train(ds, forest.Config{Trees: 6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	raw := encode(f)
	d := snapshot.NewDecoder(raw)
	g, err := forest.Decode(d, ds.Dim())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(g), raw) {
		t.Fatal("decoded forest re-encodes to different bytes")
	}
	if g.Size() != f.Size() {
		t.Fatalf("decoded forest size %d, trained %d", g.Size(), f.Size())
	}
	batch := g.PredictBatch(ds.X)
	for i, x := range ds.X {
		if got, want := g.Predict(x), f.Predict(x); got != want || batch[i] != want {
			t.Fatalf("row %d: decoded Predict %d, PredictBatch %d, trained %d", i, got, batch[i], want)
		}
	}

	if _, err := forest.Decode(snapshot.NewDecoder(raw), ds.Dim()-1); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("forest splitting beyond the row dimension: err = %v, want ErrCorrupt", err)
	}
	nilForest, err := forest.Decode(snapshot.NewDecoder(encode(nil)), ds.Dim())
	if err != nil || nilForest != nil {
		t.Fatalf("absent forest decoded as %v, %v", nilForest, err)
	}
}

// TestDecodeAllocsFixed: decoding allocates the same number of times
// whatever the forest's size — no per-tree, per-node or per-leaf slices.
func TestDecodeAllocsFixed(t *testing.T) {
	ds := goldenDataset()
	allocs := func(trees int) float64 {
		f, err := forest.Train(ds, forest.Config{Trees: trees, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		raw := encode(f)
		return testing.AllocsPerRun(20, func() {
			if _, err := forest.Decode(snapshot.NewDecoder(raw), ds.Dim()); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(2), allocs(40)
	// The forest, its class slice, roots, nodes, leaf offsets and leaf
	// arena, plus at most one per class name (one-byte names allocate
	// none) — measured 6.
	const bound = 10
	if small != large || large > bound {
		t.Fatalf("decode allocations: %v for 2 trees, %v for 40, want equal and ≤ %d", small, large, bound)
	}
}

// BenchmarkForestDecode measures decoding a 100-tree forest from its
// encoding, the model-load and disk-tier read cost per forest.
func BenchmarkForestDecode(b *testing.B) {
	ds := goldenDataset()
	f, err := forest.Train(ds, forest.Config{Trees: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	raw := encode(f)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := forest.Decode(snapshot.NewDecoder(raw), ds.Dim()); err != nil {
			b.Fatal(err)
		}
	}
}
