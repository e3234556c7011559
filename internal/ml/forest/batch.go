package forest

import (
	"math"
	"math/bits"
	"runtime"

	"ltefp/internal/par"
)

// predictStackClasses bounds the class count for which single-row
// prediction can use a stack buffer instead of allocating.
const predictStackClasses = 16

// PredictInto accumulates the soft-voted class distribution for x into
// out (len(out) must equal len(f.Classes)) and returns the most probable
// class index. It allocates nothing, making it the building block for
// high-rate window classification.
func (f *Forest) PredictInto(x []float64, out []float64) int {
	for i := range out {
		out[i] = 0
	}
	for i := range f.Trees {
		f.Trees[i].predict(x, out)
	}
	return normalizeArgmax(out)
}

// normalizeArgmax scales a vote accumulator into a distribution and
// returns the argmax, with the exact float operations and first-wins
// tie-break of the original PredictProba/Predict pair.
func normalizeArgmax(out []float64) int {
	total := 0.0
	for _, v := range out {
		total += v
	}
	if total > 0 {
		for i := range out {
			out[i] /= total
		}
	}
	best, bv := 0, out[0]
	for i, v := range out {
		if v > bv {
			best, bv = i, v
		}
	}
	return best
}

// predictBatchChunk sizes the row chunks walked per tree sweep. It is a
// cache budget, not just a parallelism grain: a chunk's vote accumulators
// and feature rows (~100KB at 256 rows) plus one tree's nodes must stay
// cache-resident across the whole tree-major sweep, so the serial path
// chunks exactly like the worker pool does.
const predictBatchChunk = 256

// packedNode is the 16-byte traversal form of a Node used by batch
// prediction: four nodes per cache line instead of one Node (48 bytes +
// Dist header). Tree growth emits nodes in DFS preorder, so an internal
// node's left child is always the next node — only the right index is
// stored, and the ≤ branch is a plain increment.
//
// The threshold is held as its order-preserving integer key (orderedKey):
// an unsigned compare is something the compiler will lower to a
// conditional move, where a float compare (with its NaN semantics) always
// compiles to a data-dependent branch that mispredicts half the time.
// Leaves are encoded as self-loops (key 0, feature 0, right pointing at
// the node itself): no feature key is ever ≤ 0, so a step taken from a
// leaf goes nowhere, the walker detects arrival as "the step did not
// move", and the descent loop body needs no leaf branch at all.
type packedNode struct {
	key   uint64
	feat  int32
	right int32
}

// orderedKey maps a float64 onto a uint64 whose unsigned order matches
// float order for every non-NaN value: negative floats are bit-inverted,
// non-negative floats get the sign bit, and -0 is first folded onto +0 so
// the two zeroes compare equal. No value maps to 0 (the leaf self-loop
// key): the smallest reachable key is orderedKey(NaN with a negative
// sign), and the features this forest sees — counts, durations, ratios —
// are never NaN by construction (a NaN feature would already make the
// trainer's split ordering unspecified).
func orderedKey(f float64) uint64 {
	const sign = 1 << 63
	b := math.Float64bits(f)
	if b == sign {
		b = 0
	}
	if b&sign != 0 {
		return ^b
	}
	return b | sign
}

// batchRep is the compact whole-forest form walked by predictChunk: all
// trees' nodes in one flat array (start[t] is tree t's root, internal
// right indices are absolute) and all leaf distributions in one arena,
// with leafOff[i] giving node i's offset into it (valid only at leaves).
// The arena is widened to float64 at build time — the float32→float64
// conversion is exact, so hoisting it out of the accumulation loop cannot
// change a single result bit.
type batchRep struct {
	nodes   []packedNode
	start   []int32
	leafOff []int32
	dists   []float64
}

// packed returns the forest's compact traversal form, building it on
// first use. The build is cheap (one pass over the nodes) relative to any
// batch large enough to want this path.
func (f *Forest) packed() *batchRep {
	f.packOnce.Do(func() {
		total := 0
		for i := range f.Trees {
			total += len(f.Trees[i].Nodes)
		}
		rep := &batchRep{
			nodes:   make([]packedNode, total),
			start:   make([]int32, len(f.Trees)),
			leafOff: make([]int32, total),
			dists:   make([]float64, 0, total*len(f.Classes)/2),
		}
		base := int32(0)
		for ti := range f.Trees {
			rep.start[ti] = base
			for j := range f.Trees[ti].Nodes {
				n := &f.Trees[ti].Nodes[j]
				self := base + int32(j)
				p := &rep.nodes[self]
				if n.Feature == leafMark {
					p.key = 0
					p.feat = 0
					p.right = self
					rep.leafOff[self] = int32(len(rep.dists))
					for _, d := range n.Dist {
						rep.dists = append(rep.dists, float64(d))
					}
				} else {
					p.key = orderedKey(n.Threshold)
					p.feat = n.Feature
					p.right = base + n.Right
				}
			}
			base += int32(len(f.Trees[ti].Nodes))
		}
		f.pack = rep
	})
	return f.pack
}

// PredictBatch classifies every row of X and returns the predicted class
// indices. Within each chunk trees are walked in tree-major order so one
// tree's nodes stay hot in cache across many rows, and when GOMAXPROCS
// allows it chunks are spread over a bounded worker pool — several times
// faster than calling Predict per row either way. Results are identical
// to per-row Predict regardless of worker scheduling.
func (f *Forest) PredictBatch(X [][]float64) []int {
	out := make([]int, len(X))
	f.PredictBatchInto(X, out)
	return out
}

// PredictBatchInto is PredictBatch writing into a caller-owned slice
// (len(out) must equal len(X)).
func (f *Forest) PredictBatchInto(X [][]float64, out []int) {
	var s BatchScratch
	f.PredictBatchScratch(X, out, &s)
}

// BatchScratch carries PredictBatchScratch's per-call working memory — the
// vote accumulators and integer feature keys — so a caller classifying a
// stream of small batches reuses one set of buffers instead of allocating
// two slices per call. The zero value is ready; a scratch must not be
// shared between concurrent calls.
type BatchScratch struct {
	probs []float64
	keys  []uint64
}

// probsFor returns a zeroed n-float accumulator, growing the backing store
// only when a batch exceeds every earlier one.
func (s *BatchScratch) probsFor(n int) []float64 {
	if cap(s.probs) < n {
		s.probs = make([]float64, n)
		return s.probs
	}
	p := s.probs[:n]
	clear(p)
	return p
}

// keysFor returns an n-key scratch; contents are fully overwritten by the
// chunk walk, so no clearing is needed.
func (s *BatchScratch) keysFor(n int) []uint64 {
	if cap(s.keys) < n {
		s.keys = make([]uint64, n)
	}
	return s.keys[:n]
}

// PredictBatchScratch is PredictBatchInto with caller-owned working memory:
// steady-state it allocates nothing, which is what the streaming pipeline's
// per-batch classify path needs. Results are bit-identical to PredictBatch.
func (f *Forest) PredictBatchScratch(X [][]float64, out []int, s *BatchScratch) {
	if len(X) == 0 {
		return
	}
	if m := activeMetrics.Load(); m != nil {
		defer m.batchMS.Start().Stop()
		m.batchRows.Add(int64(len(X)))
	}
	if len(X[0]) == 0 {
		// Degenerate featureless rows: every tree is a bare leaf and the
		// packed walk's probe of x[0] would be out of range.
		probs := s.probsFor(len(f.Classes))
		for r, x := range X {
			out[r] = f.PredictInto(x, probs)
		}
		return
	}
	classes := len(f.Classes)
	dim := len(X[0])
	rep := f.packed()
	probs := s.probsFor(len(X) * classes)
	keys := s.keysFor(len(X) * dim)
	chunks := (len(X) + predictBatchChunk - 1) / predictBatchChunk
	workers := runtime.GOMAXPROCS(0)
	if workers <= 1 || chunks <= 1 {
		// One sweep over the whole batch: reloading every tree per chunk
		// costs more than letting the accumulators stream through cache.
		f.predictChunk(rep, X, keys, probs, out)
		return
	}
	_ = par.For(chunks, workers, func(c int) error { // never fails
		lo := c * predictBatchChunk
		hi := min(lo+predictBatchChunk, len(X))
		f.predictChunk(rep, X[lo:hi], keys[lo*dim:hi*dim], probs[lo*classes:hi*classes], out[lo:hi])
		return nil
	})
}

// treePair walks two rows down one tree in lock step and returns the leaf
// node index each lands on. One row's walk is a serial chain of dependent
// node loads steered by data-dependent coin flips; running two
// independent chains overlaps their cache misses, and the branch-free
// loop body (each step is an unsigned compare-and-select; leaves
// self-loop instead of needing a leaf test) keeps one lane's step from
// flushing the other's in-flight work on a misprediction. A lane that
// lands early just re-selects its leaf until the deeper lane arrives; the
// loop exits when neither lane moved.
func treePair(nodes []packedNode, base int32, k0, k1 []uint64) (int32, int32) {
	i0, i1 := base, base
	for {
		n0 := nodes[i0]
		n1 := nodes[i1]
		// Branch-free select: borrow is 1 exactly when the feature key
		// exceeds the node key (go right), and the xor-mask picks between
		// left (i+1) and right without a data-dependent jump — the
		// compiler will not emit a conditional move on its own here, so
		// the select is spelled out in ALU ops.
		_, b0 := bits.Sub64(n0.key, k0[n0.feat], 0)
		_, b1 := bits.Sub64(n1.key, k1[n1.feat], 0)
		m0, m1 := -int32(b0), -int32(b1)
		j0 := (i0 + 1) ^ (((i0 + 1) ^ n0.right) & m0)
		j1 := (i1 + 1) ^ (((i1 + 1) ^ n1.right) & m1)
		if j0 == i0 && j1 == i1 {
			return i0, i1
		}
		i0, i1 = j0, j1
	}
}

// treeQuad is treePair over four lanes: deeper interleaving hides more of
// the node-load latency as long as the selects stay branch-free.
func treeQuad(nodes []packedNode, base int32, k0, k1, k2, k3 []uint64) (int32, int32, int32, int32) {
	i0, i1, i2, i3 := base, base, base, base
	for {
		n0 := nodes[i0]
		n1 := nodes[i1]
		n2 := nodes[i2]
		n3 := nodes[i3]
		_, b0 := bits.Sub64(n0.key, k0[n0.feat], 0)
		_, b1 := bits.Sub64(n1.key, k1[n1.feat], 0)
		_, b2 := bits.Sub64(n2.key, k2[n2.feat], 0)
		_, b3 := bits.Sub64(n3.key, k3[n3.feat], 0)
		j0 := (i0 + 1) ^ (((i0 + 1) ^ n0.right) & -int32(b0))
		j1 := (i1 + 1) ^ (((i1 + 1) ^ n1.right) & -int32(b1))
		j2 := (i2 + 1) ^ (((i2 + 1) ^ n2.right) & -int32(b2))
		j3 := (i3 + 1) ^ (((i3 + 1) ^ n3.right) & -int32(b3))
		if j0 == i0 && j1 == i1 && j2 == i2 && j3 == i3 {
			return i0, i1, i2, i3
		}
		i0, i1, i2, i3 = j0, j1, j2, j3
	}
}

// treeLanes descends laneCount rows through one tree concurrently: each
// lane is an independent chain of dependent node loads, so the core
// overlaps their cache misses, and every step is an arithmetic select
// (borrow → xor-mask) with no data-dependent branch to mispredict. Lanes
// that land early self-loop on their leaf until the deepest lane
// arrives; the loop exits when no lane moved. kb[l] is lane l's base
// offset into the flat keys matrix.
const laneCount = 16

func treeLanes(nodes []packedNode, base int32, keys []uint64, kb *[laneCount]int32) [laneCount]int32 {
	var li [laneCount]int32
	for l := range li {
		li[l] = base
	}
	for {
		moved := int32(0)
		for l := 0; l < laneCount; l++ {
			i := li[l]
			n := nodes[i]
			_, b := bits.Sub64(n.key, keys[kb[l]+n.feat], 0)
			j := (i + 1) ^ (((i + 1) ^ n.right) & -int32(b))
			li[l] = j
			moved |= j ^ i
		}
		if moved == 0 {
			return li
		}
	}
}

// predictChunk runs tree-major soft voting over one row chunk of the
// packed representation: rows are first mapped onto their integer feature
// keys, then one tree's nodes stay hot in cache across all rows of the
// chunk before the next tree starts, with rows descending in pairs (see
// treePair). probs is a zeroed len(X)*classes accumulator and keys a
// len(X)*dim scratch. Accumulation order (tree-major, then leaf
// distribution order) matches per-row Predict exactly, so results are
// bit-identical.
func (f *Forest) predictChunk(rep *batchRep, X [][]float64, keys []uint64, probs []float64, out []int) {
	classes := len(f.Classes)
	dim := len(X[0])
	nodes := rep.nodes
	dists := rep.dists
	for r, x := range X {
		kr := keys[r*dim : (r+1)*dim]
		for j, v := range x {
			kr[j] = orderedKey(v)
		}
	}
	for _, base := range rep.start {
		r := 0
		for ; r+laneCount <= len(X); r += laneCount {
			var kb [laneCount]int32
			for l := 0; l < laneCount; l++ {
				kb[l] = int32((r + l) * dim)
			}
			li := treeLanes(nodes, base, keys, &kb)
			for l, idx := range li {
				row := probs[(r+l)*classes : (r+l+1)*classes]
				off := rep.leafOff[idx]
				for c, p := range dists[off : off+int32(classes)] {
					row[c] += p
				}
			}
		}
		for ; r+4 <= len(X); r += 4 {
			l0, l1, l2, l3 := treeQuad(nodes, base,
				keys[r*dim:(r+1)*dim], keys[(r+1)*dim:(r+2)*dim],
				keys[(r+2)*dim:(r+3)*dim], keys[(r+3)*dim:(r+4)*dim])
			for l, li := range [4]int32{l0, l1, l2, l3} {
				row := probs[(r+l)*classes : (r+l+1)*classes]
				off := rep.leafOff[li]
				for c, p := range dists[off : off+int32(classes)] {
					row[c] += p
				}
			}
		}
		for ; r+2 <= len(X); r += 2 {
			l0, l1 := treePair(nodes, base, keys[r*dim:(r+1)*dim], keys[(r+1)*dim:(r+2)*dim])
			row := probs[r*classes : (r+1)*classes]
			off := rep.leafOff[l0]
			for c, p := range dists[off : off+int32(classes)] {
				row[c] += p
			}
			row = probs[(r+1)*classes : (r+2)*classes]
			off = rep.leafOff[l1]
			for c, p := range dists[off : off+int32(classes)] {
				row[c] += p
			}
		}
		for ; r < len(X); r++ {
			k := keys[r*dim : (r+1)*dim]
			i := base
			for {
				n := nodes[i]
				j := n.right
				if k[n.feat] <= n.key {
					j = i + 1
				}
				if j == i {
					break
				}
				i = j
			}
			row := probs[r*classes : (r+1)*classes]
			off := rep.leafOff[i]
			for c, p := range dists[off : off+int32(classes)] {
				row[c] += p
			}
		}
	}
	for r := range X {
		out[r] = normalizeArgmax(probs[r*classes : (r+1)*classes])
	}
}
