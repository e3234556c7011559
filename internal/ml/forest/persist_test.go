package forest_test

import (
	"bytes"
	"errors"
	"math"
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
		if got, want := g.PredictOracle(x), f.PredictOracle(x); got != want || batch[i] != want {
			t.Fatalf("row %d: decoded oracle %d, PredictBatch %d, trained %d", i, got, batch[i], want)
		}
	}

	if _, err := forest.Decode(snapshot.NewDecoder(raw), ds.Dim()-1); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("forest splitting beyond the row dimension: err = %v, want ErrCorrupt", err)
	}
	nilForest, err := forest.Decode(snapshot.NewDecoder(encode(nil)), ds.Dim())
	if err != nil || nilForest != nil {
		t.Fatalf("absent forest decoded as %v, %v", nilForest, err)
	}
	if _, err := forest.Decode(snapshot.NewDecoder(encode(&forest.Forest{})), ds.Dim()); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("zero forest: err = %v, want ErrCorrupt (no classes)", err)
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
	// The forest, its class slice, nodes, root and leaf offsets (one
	// array) and leaf arena, plus at most one per class name (one-byte
	// names allocate none) — measured 5.
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

func encodeV1(f *forest.Forest) []byte {
	e := snapshot.NewEncoder(1 << 12)
	forest.EncodeV1(e, f)
	return e.Bytes()
}

// TestDecodeV1: a forest in the v1 layout of older model files decodes
// through DecodeCompat to the forest it was written from, so it
// re-encodes to that forest's v2 bytes; Decode, the v2-only reader,
// refuses it.
func TestDecodeV1(t *testing.T) {
	ds := goldenDataset()
	for _, cfg := range []forest.Config{
		{Trees: 1, Seed: 1, MaxDepth: 1},
		{Trees: 6, Seed: 4},
		{Trees: 3, Seed: 9, MinLeaf: 5},
	} {
		f, err := forest.Train(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := snapshot.NewDecoder(encodeV1(f))
		g, err := forest.DecodeCompat(d, ds.Dim())
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encode(g), encode(f)) {
			t.Fatalf("cfg %+v: v1 forest decodes to a different forest", cfg)
		}
		if _, err := forest.Decode(snapshot.NewDecoder(encodeV1(f)), ds.Dim()); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("v2-only Decode of a v1 forest: err = %v, want ErrCorrupt", err)
		}
	}
	if !bytes.Equal(encodeV1(nil), encode(nil)) {
		t.Fatal("absent forest encodes differently in v1 and v2")
	}
}

// v2Forest spells out a v2 encoding part by part (see forest.Encode), so
// tests can write records the encoder never would.
type v2Forest struct {
	layout               byte
	classes              []string
	trees, nodes, leaves uint64
	roots                []uint32
	recs                 []v2Record
	dists                []float32
}

type v2Record struct {
	key   uint64
	feat  int32
	right int32
}

func (v v2Forest) bytes() []byte {
	e := snapshot.NewEncoder(256)
	e.Uvarint(uint64(v.layout))
	e.Uvarint(uint64(len(v.classes)))
	for _, c := range v.classes {
		e.Str(c)
	}
	e.Uvarint(v.trees)
	e.Uvarint(v.nodes)
	e.Uvarint(v.leaves)
	for _, r := range v.roots {
		e.U32(r)
	}
	for _, r := range v.recs {
		e.U64(r.key)
		e.U32(uint32(r.feat))
		e.U32(uint32(r.right))
	}
	for _, p := range v.dists {
		e.F32(p)
	}
	return e.Bytes()
}

// tinyV2 is a valid two-class forest over 3-feature rows: a stump on
// feature 1 and a bare leaf.
func tinyV2() v2Forest {
	return v2Forest{
		layout:  2,
		classes: []string{"a", "b"},
		trees:   2, nodes: 4, leaves: 3,
		roots: []uint32{0, 3},
		recs: []v2Record{
			{key: 1<<63 | math.Float64bits(0.5), feat: 1, right: 2},
			{right: 1},
			{right: 2},
			{right: 0},
		},
		dists: []float32{1, 0, 0, 1, 0.25, 0.75},
	}
}

// TestDecodeRejectsV2: every structural rule Decode documents holds for
// the v2 layout's own fields, each break reported as ErrCorrupt.
func TestDecodeRejectsV2(t *testing.T) {
	d := snapshot.NewDecoder(tinyV2().bytes())
	f, err := forest.Decode(d, 3)
	if err != nil {
		t.Fatalf("valid forest rejected: %v", err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := f.PredictBatch([][]float64{{0, 0.5, 0}, {0, 0.6, 0}}); got[0] != 0 || got[1] != 1 {
		t.Fatalf("tiny forest predicts %v, want [0 1]", got)
	}
	for _, tc := range []struct {
		name   string
		mutate func(v *v2Forest)
	}{
		{"unknown layout", func(v *v2Forest) { v.layout = 3 }},
		{"no classes", func(v *v2Forest) { v.classes = nil }},
		{"leaf carries a key", func(v *v2Forest) { v.recs[1].key = 5 }},
		{"leaf carries a feature", func(v *v2Forest) { v.recs[3].feat = 2 }},
		{"feature beyond the row", func(v *v2Forest) { v.recs[0].feat = 3 }},
		{"negative feature", func(v *v2Forest) { v.recs[0].feat = -1 }},
		{"right child before the node", func(v *v2Forest) { v.recs[0].right = -1 }},
		{"right child past the tree", func(v *v2Forest) { v.recs[0].right = 3 }},
		{"first root not zero", func(v *v2Forest) { v.roots[0] = 1 }},
		{"empty tree", func(v *v2Forest) { v.roots[1] = 0 }},
		{"root past the nodes", func(v *v2Forest) { v.roots[1] = 4 }},
		// A later root far out of range must be caught before the
		// earlier tree, which ends at it, is walked.
		{"root far past the nodes", func(v *v2Forest) { v.roots[1] = 1 << 20 }},
		{"nodes outside any tree", func(v *v2Forest) {
			v.trees, v.roots, v.recs, v.leaves, v.dists = 0, nil, v.recs[3:], 0, nil
		}},
		{"more leaves than declared", func(v *v2Forest) { v.leaves, v.dists = 2, v.dists[:4] }},
		{"fewer leaves than declared", func(v *v2Forest) { v.leaves, v.dists = 4, append(v.dists, 0.5, 0.5) }},
		{"truncated arena", func(v *v2Forest) { v.dists = v.dists[:5] }},
	} {
		v := tinyV2()
		tc.mutate(&v)
		if _, err := forest.Decode(snapshot.NewDecoder(v.bytes()), 3); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// FuzzForestDecode feeds raw forest bytes, seeded with v1 and v2
// encodings, to DecodeCompat. Whatever the bytes, decoding must not
// panic, and a forest it accepts must be whole: it re-encodes to v2 bytes
// that Decode accepts and re-encodes unchanged, and the batch kernels
// agree with the per-row oracle on every probe row.
func FuzzForestDecode(f *testing.F) {
	ds := goldenDataset()
	trained, err := forest.Train(ds, forest.Config{Trees: 3, Seed: 5, MaxDepth: 4})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encode(trained))
	f.Add(encodeV1(trained))
	f.Add(encode(nil))
	f.Add(tinyV2().bytes())
	raw := encode(trained)
	f.Add(raw[:len(raw)/2])

	probes := ds.X[:40]
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := forest.DecodeCompat(snapshot.NewDecoder(data), ds.Dim())
		if err != nil || got == nil {
			return
		}
		v2 := encode(got)
		again, err := forest.Decode(snapshot.NewDecoder(v2), ds.Dim())
		if err != nil {
			t.Fatalf("accepted forest re-encodes to bytes Decode rejects: %v", err)
		}
		if !bytes.Equal(encode(again), v2) {
			t.Fatal("v2 bytes do not survive a decode")
		}
		batch := got.PredictBatch(probes)
		for i, x := range probes {
			if want := got.PredictOracle(x); batch[i] != want {
				t.Fatalf("probe %d: batch %d, oracle %d", i, batch[i], want)
			}
		}
	})
}
