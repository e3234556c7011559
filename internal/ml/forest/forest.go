// Package forest implements CART decision trees and Breiman random forests
// from scratch: bootstrap aggregation, per-split feature subsampling, and
// exact Gini-optimal threshold search. The paper selects Random Forest
// (100 trees, seed 1) as its classifier after benchmarking it against
// logistic regression, kNN, and a CNN (Table VIII); this package is that
// model.
//
// The trainer never sorts inside a node: every feature column of the
// dataset is sorted once per Train call, each tree derives its bootstrap
// sample's column order from that by a counting pass, and node splits keep
// the per-feature order intact through stable partitioning. Together with
// the per-worker scratch buffers this makes tree growth allocation-free
// after warm-up while producing trees bit-identical to the original
// sort-per-node implementation (guarded by TestGoldenTrees).
package forest

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"ltefp/internal/ml/dataset"
	"ltefp/internal/par"
	"ltefp/internal/sim"
)

// Config controls forest training. Zero values select the defaults noted
// per field.
type Config struct {
	// Trees is the ensemble size (default 100, the paper's setting).
	Trees int
	// MaxDepth bounds tree depth (default 24).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 2).
	MinLeaf int
	// FeaturesPerSplit is the number of features tried per split
	// (default √d).
	FeaturesPerSplit int
	// SubsampleSize is the bootstrap sample size per tree (default n).
	SubsampleSize int
	// Seed drives all randomness (the paper uses seed 1).
	Seed uint64
	// Workers bounds training parallelism (default GOMAXPROCS).
	Workers int
}

func (c Config) withDefaults(n, dim int) Config {
	if c.Trees <= 0 {
		c.Trees = 100
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 24
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 2
	}
	if c.FeaturesPerSplit <= 0 {
		c.FeaturesPerSplit = int(math.Ceil(math.Sqrt(float64(dim))))
	}
	if c.FeaturesPerSplit > dim {
		c.FeaturesPerSplit = dim
	}
	if c.SubsampleSize <= 0 || c.SubsampleSize > n {
		c.SubsampleSize = n
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// leafMark distinguishes leaves in the flat node array.
const leafMark = -1

// Node is one flat-array tree node. Leaves have Feature == leafMark and a
// class distribution; internal nodes route on X[Feature] <= Threshold.
type Node struct {
	Feature   int32
	Threshold float64
	Left      int32
	Right     int32
	Dist      []float32
}

// Tree is one CART tree in flat-array form.
type Tree struct {
	Nodes []Node
}

// predict accumulates the leaf distribution for x into out.
func (t *Tree) predict(x []float64, out []float64) {
	i := int32(0)
	for {
		n := &t.Nodes[i]
		if n.Feature == leafMark {
			for c, p := range n.Dist {
				out[c] += float64(p)
			}
			return
		}
		if x[n.Feature] <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// Forest is a trained random forest.
type Forest struct {
	Trees   []Tree
	Classes []string

	// packOnce guards pack, the lazily built compact traversal form used
	// by the batch prediction path. Both are unexported so gob round-trips
	// ignore them; a decoded Forest simply rebuilds on first batch call.
	packOnce sync.Once
	pack     *batchRep
}

// Train fits a forest on the dataset. Trees are grown on up to
// cfg.Workers goroutines (par.Workers), each from a deterministic per-tree
// stream, so results do not depend on scheduling; each goroutine reuses
// one grower's scratch buffers across all the trees it grows.
func Train(d *dataset.Dataset, cfg Config) (*Forest, error) {
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("forest: %w", err)
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("forest: empty training set")
	}
	if len(d.Classes) > 1<<16 {
		return nil, fmt.Errorf("forest: %d classes exceeds the trainer's uint16 label limit", len(d.Classes))
	}
	if m := activeMetrics.Load(); m != nil {
		defer m.trainMS.Start().Stop()
		m.trainRows.Add(int64(d.Len()))
	}
	cfg = cfg.withDefaults(d.Len(), d.Dim())
	f := &Forest{Trees: make([]Tree, cfg.Trees), Classes: d.Classes}
	cols := columnOrders(d, cfg.Workers)

	par.Workers(cfg.Trees, cfg.Workers, func(_ int, next func() (int, bool)) {
		g := newGrower(d, cfg, cols)
		for t, ok := next(); ok; t, ok = next() {
			f.Trees[t] = g.grow(treeRNG(cfg.Seed, t))
		}
	})
	return f, nil
}

// PredictProba returns the soft-voted class distribution for x.
func (f *Forest) PredictProba(x []float64) []float64 {
	out := make([]float64, len(f.Classes))
	f.PredictInto(x, out)
	return out
}

// Predict returns the most probable class index for x.
func (f *Forest) Predict(x []float64) int {
	var buf [predictStackClasses]float64
	if len(f.Classes) <= predictStackClasses {
		return f.PredictInto(x, buf[:len(f.Classes)])
	}
	return f.PredictInto(x, make([]float64, len(f.Classes)))
}

// treeRNG derives tree t's deterministic random stream. OOBError relies on
// this to reconstruct each tree's bootstrap sample, so the derivation must
// stay in lock-step with grow's draw order.
func treeRNG(seed uint64, t int) *sim.RNG {
	return sim.NewRNG(seed*0x100000001b3 + uint64(t) + 1)
}

// sortedCols is the per-Train shared, read-only sorted view of the dataset:
// for every feature, the dataset rows in ascending value order plus the
// value and class label of each position in that order. Growers stream
// these flat arrays sequentially instead of chasing d.X row pointers.
type sortedCols struct {
	orders [][]int32 // per-feature dataset row order
	vals   []float64 // dim*n values, vals[f*n+i] = X[orders[f][i]][f]
	y16    []uint16  // dataset labels by row, compact for cache residency
}

// columnOrders sorts every feature column of the dataset once per Train
// call (in parallel, bounded by workers). Per-tree bootstrap column orders
// are then derived with counting passes instead of per-node comparison
// sorts.
func columnOrders(d *dataset.Dataset, workers int) *sortedCols {
	dim, n := d.Dim(), d.Len()
	out := &sortedCols{orders: make([][]int32, dim)}
	if dim == 0 {
		return out
	}
	backing := make([]int32, dim*n)
	out.vals = make([]float64, dim*n)
	out.y16 = make([]uint16, n)
	for r, c := range d.Y {
		out.y16[r] = uint16(c)
	}
	_ = par.For(dim, workers, func(f int) error { // never fails
		ord := backing[f*n : (f+1)*n : (f+1)*n]
		for i := range ord {
			ord[i] = int32(i)
		}
		slices.SortFunc(ord, func(a, b int32) int {
			va, vb := d.X[a][f], d.X[b][f]
			switch {
			case va < vb:
				return -1
			case va > vb:
				return 1
			}
			return 0
		})
		out.orders[f] = ord
		vals := out.vals[f*n : (f+1)*n]
		for i, r := range ord {
			vals[i] = d.X[r][f]
		}
		return nil
	})
	return out
}

// distArenaChunk sizes the leaf-distribution arena allocations.
const distArenaChunk = 4096

// grower carries per-worker training state. All scratch is sized once in
// newGrower and reused for every tree the worker grows; the only per-tree
// allocations left are the returned node slice and, occasionally, a fresh
// leaf-distribution arena chunk (both escape into the trained forest).
type grower struct {
	d       *dataset.Dataset
	cfg     Config
	classes int
	dim     int
	S       int         // bootstrap sample size
	cols    *sortedCols // shared read-only sorted dataset view

	rng   *sim.RNG
	nodes []Node // scratch; copied into the returned tree

	idx  []int32 // bootstrap row per sample position
	y    []int32 // label per sample position
	mult []int32 // dataset row -> bootstrap multiplicity

	// Column state double-buffers: a node's segments live in one buffer and
	// each partition writes both children into the other, so every element
	// is stored exactly once per split with no scratch or copy-back. Only
	// values and rows are carried; labels and weights are row lookups into
	// the small cols.y16 and mult arrays.
	colVal [2][]float64 // dim*U feature values, sorted within node segments
	colRow [2][]int32   // dim*U dataset rows, parallel to colVal

	side    []uint8 // per-dataset-row goes-left flag (1 = left) during partitioning
	left    []int   // split-search left class counts
	lcounts [][]int // per-depth left-child count buffers
	counts  [][]int // per-depth class-count buffers
	perm    []int   // feature subsample permutation
	dist    []float32
}

func newGrower(d *dataset.Dataset, cfg Config, cols *sortedCols) *grower {
	n, dim, S := d.Len(), d.Dim(), cfg.SubsampleSize
	return &grower{
		d:       d,
		cfg:     cfg,
		classes: len(d.Classes),
		dim:     dim,
		S:       S,
		cols:    cols,

		idx:  make([]int32, S),
		y:    make([]int32, S),
		mult: make([]int32, n),
		colVal: [2][]float64{
			make([]float64, dim*S), make([]float64, dim*S),
		},
		colRow: [2][]int32{
			make([]int32, dim*S), make([]int32, dim*S),
		},
		side: make([]uint8, n),
		left: make([]int, len(d.Classes)),
		perm: make([]int, dim),
	}
}

// grow fits one tree from its deterministic stream. The draw order —
// SubsampleSize bootstrap draws, then one feature permutation per internal
// node in depth-first order — matches the original implementation exactly,
// which OOBError and the golden-tree test rely on.
func (g *grower) grow(rng *sim.RNG) Tree {
	g.rng = rng
	n := g.d.Len()
	for i := range g.idx {
		g.idx[i] = int32(rng.IntN(n))
	}
	for p, r := range g.idx {
		g.y[p] = int32(g.d.Y[r])
	}

	// Count each dataset row's bootstrap multiplicity, then derive each
	// feature column's sorted bootstrap order from the dataset-wide order in
	// one O(n) pass per feature. Duplicate draws of the same row share every
	// feature value, so they can never land on different sides of a split;
	// the columns therefore carry one weighted entry per unique drawn row
	// (~63% of S for a full bootstrap), and all class counts downstream add
	// multiplicities instead of ones — sample-exact, but every partition and
	// split scan touches only unique rows. The fill writes every position
	// unconditionally and advances only past drawn rows, keeping the loop
	// free of the unpredictable w==0 branch.
	mult := g.mult
	for i := range mult {
		mult[i] = 0
	}
	for _, r := range g.idx {
		mult[r]++
	}
	U := 0
	for f := 0; f < g.dim; f++ {
		cv := g.colVal[0][f*g.S : (f+1)*g.S]
		cr := g.colRow[0][f*g.S : (f+1)*g.S]
		vals := g.cols.vals[f*n : (f+1)*n]
		j := 0
		for i, r := range g.cols.orders[f] {
			w := mult[r]
			cv[j] = vals[i]
			cr[j] = r
			j += int(uint32(-w) >> 31) // 1 iff w > 0
		}
		U = j
	}

	// Root class counts stream the bootstrap labels once; every deeper
	// node's counts are derived by its parent during split bookkeeping.
	g.nodes = g.nodes[:0]
	counts := g.countsAt(0)
	for _, c := range g.y {
		counts[c]++
	}
	if g.dim == 0 {
		// No feature columns to carry rows: the tree is one leaf.
		g.leaf(counts, g.S)
	} else {
		g.build(0, U, 0, counts, g.S, 0)
	}
	nodes := make([]Node, len(g.nodes))
	copy(nodes, g.nodes)
	return Tree{Nodes: nodes}
}

// countsAt returns the reusable class-count buffer for one recursion depth.
func (g *grower) countsAt(depth int) []int {
	for len(g.counts) <= depth {
		g.counts = append(g.counts, make([]int, g.classes))
	}
	c := g.counts[depth]
	for i := range c {
		c[i] = 0
	}
	return c
}

// lcountsAt returns the reusable left-child count buffer for one depth.
func (g *grower) lcountsAt(depth int) []int {
	for len(g.lcounts) <= depth {
		g.lcounts = append(g.lcounts, make([]int, g.classes))
	}
	c := g.lcounts[depth]
	for i := range c {
		c[i] = 0
	}
	return c
}

// isLeaf reports whether a node with these class counts must terminate
// (mirrors build's stopping rule; a false here may still become a leaf if
// no split with positive gain exists).
func (g *grower) isLeaf(counts []int, n, depth int) bool {
	if depth >= g.cfg.MaxDepth || n < 2*g.cfg.MinLeaf {
		return true
	}
	pure := 0
	for _, c := range counts {
		if c > 0 {
			pure++
		}
	}
	return pure <= 1
}

// build grows the subtree over column element segment [lo, hi) of buffer b
// — one entry per unique bootstrap row, weighted by multiplicity — and
// returns its node index. counts/ns describe the node's class distribution
// in samples (derived by the parent, so nodes never re-count their
// segments), exactly as if every bootstrap draw were carried individually.
// build owns the counts buffer from the moment it is called and may clobber
// it.
func (g *grower) build(lo, hi, depth int, counts []int, ns, b int) int32 {
	m := hi - lo
	pure := 0
	for _, c := range counts {
		if c > 0 {
			pure++
		}
	}
	if pure <= 1 || depth >= g.cfg.MaxDepth || ns < 2*g.cfg.MinLeaf {
		return g.leaf(counts, ns)
	}
	feat, thr, ok := g.bestSplit(lo, hi, counts, ns, b)
	if !ok {
		return g.leaf(counts, ns)
	}

	// The chosen feature's segment is sorted, so its left side is exactly
	// the prefix of values <= thr.
	base := feat * g.S
	fv := g.colVal[b][base+lo : base+hi]
	ml := sort.Search(m, func(i int) bool { return fv[i] > thr })
	if ml == 0 || ml == m {
		return g.leaf(counts, ns)
	}

	// Split the class counts between the children using the split feature's
	// own sorted segment: lcounts gets the left prefix, counts (no longer
	// needed for this node) is reduced in place to the right child's.
	lcounts := g.lcountsAt(depth)
	nl := 0 // left child size in samples
	fr := g.colRow[b][base+lo : base+hi]
	for _, r := range fr[:ml] {
		w := int(g.mult[r])
		lcounts[g.cols.y16[r]] += w
		nl += w
	}
	for c := range counts {
		counts[c] -= lcounts[c]
	}

	// A child whose counts already satisfy the stopping rule becomes a leaf
	// fully determined by those counts: its column segments are never read,
	// so its side of the partition need not be materialised. Emission order
	// (self, left, right) and leaf distributions are identical to the full
	// path either way.
	leftLeaf := g.isLeaf(lcounts, nl, depth+1)
	rightLeaf := g.isLeaf(counts, ns-nl, depth+1)
	if !leftLeaf || !rightLeaf {
		// Partition every other column on left-side membership into the
		// other column buffer, stably, so all segments stay sorted. Reads
		// are sequential, each element is written exactly once (lefts at
		// the advancing w cursor, rights at the advancing t cursor), and
		// the destination index is computed arithmetically — branch-free,
		// because the side flag is data-dependent and unpredictable. When
		// one child is a leaf its side's cursor just parks on the leaf
		// region, which is left as garbage that nothing ever reads. The
		// split feature's own column is partitioned trivially: its segment
		// is sorted, so the children are literal prefix/suffix copies.
		for _, r := range fr[:ml] {
			g.side[r] = 1
		}
		nb := 1 - b
		for f := 0; f < g.dim; f++ {
			o := f*g.S + lo
			if f == feat {
				copy(g.colVal[nb][o:o+m], g.colVal[b][o:o+m])
				copy(g.colRow[nb][o:o+m], g.colRow[b][o:o+m])
				continue
			}
			cv := g.colVal[b][o : o+m]
			cr := g.colRow[b][o : o+m]
			dv := g.colVal[nb][o : o+m]
			dr := g.colRow[nb][o : o+m]
			w, t := 0, ml
			for j := 0; j < m; j++ {
				r := cr[j]
				v := cv[j]
				s := int(g.side[r])
				d := t + s*(w-t)
				dv[d], dr[d] = v, r
				w += s
				t += 1 - s
			}
		}
		for _, r := range fr[:ml] {
			g.side[r] = 0
		}
		b = nb
	}

	self := int32(len(g.nodes))
	g.nodes = append(g.nodes, Node{Feature: int32(feat), Threshold: thr})
	var left, right int32
	if leftLeaf {
		left = g.leaf(lcounts, nl)
	} else {
		left = g.build(lo, lo+ml, depth+1, lcounts, nl, b)
	}
	if rightLeaf {
		right = g.leaf(counts, ns-nl)
	} else {
		right = g.build(lo+ml, hi, depth+1, counts, ns-nl, b)
	}
	g.nodes[self].Left = left
	g.nodes[self].Right = right
	return self
}

// leaf appends a leaf node, carving its distribution out of the arena so
// growing a tree does not allocate per leaf.
func (g *grower) leaf(counts []int, n int) int32 {
	if cap(g.dist)-len(g.dist) < g.classes {
		size := distArenaChunk
		if size < g.classes {
			size = g.classes
		}
		g.dist = make([]float32, 0, size)
	}
	m := len(g.dist)
	g.dist = g.dist[:m+g.classes]
	dist := g.dist[m : m+g.classes : m+g.classes]
	if n > 0 {
		for c, v := range counts {
			dist[c] = float32(v) / float32(n)
		}
	}
	self := int32(len(g.nodes))
	g.nodes = append(g.nodes, Node{Feature: leafMark, Dist: dist})
	return self
}

// giniGuard bounds how far the integer-sum gain screen can sit below the
// exact per-class computation. Both formulas agree to ~1e-15 absolute (the
// integer sums are exact, the class-loop sum accumulates a few ulps), so a
// candidate whose screened gain is more than giniGuard under the incumbent
// can never win the exact comparison.
const giniGuard = 1e-12

// bestSplit searches FeaturesPerSplit random features for the exact
// Gini-optimal threshold, walking each feature's presorted segment.
//
// Candidate boundaries are screened by Gini impurities derived from integer
// sums of squared class counts, maintained incrementally in O(1) per
// position. Only candidates within giniGuard of the incumbent best recompute
// the per-class float Gini of the original implementation, and the winner is
// always chosen by that exact arithmetic — so the selected splits (and the
// golden trees) are bit-identical to screening-free search while skipping
// the O(classes) loops and divisions almost everywhere.
func (g *grower) bestSplit(lo, hi int, counts []int, ns, b int) (feat int, thr float64, ok bool) {
	m := hi - lo
	parentGini := giniFromCounts(counts, ns)
	bestGain := 1e-9
	g.rng.PermInto(g.perm)

	sumT := 0
	for _, c := range counts {
		sumT += c * c
	}
	fn := float64(ns)
	left := g.left
	y16, mult := g.cols.y16, g.mult
	for _, f := range g.perm[:g.cfg.FeaturesPerSplit] {
		vals := g.colVal[b][f*g.S+lo : f*g.S+hi]
		rows := g.colRow[b][f*g.S+lo : f*g.S+hi]
		for c := range left {
			left[c] = 0
		}
		suml2, sumr2 := 0, sumT
		nl := 0
		for pos := 0; pos < m-1; pos++ {
			r := rows[pos]
			c := y16[r]
			w := int(mult[r])
			lc := left[c]
			left[c] = lc + w
			// left[c]: lc -> lc+w adds w*(2*lc+w) to sum(left^2); the right
			// count drops from counts[c]-lc by w symmetrically.
			suml2 += w * (2*lc + w)
			sumr2 -= w * (2*(counts[c]-lc) - w)
			nl += w
			v, next := vals[pos], vals[pos+1]
			if v == next {
				continue
			}
			if nl < g.cfg.MinLeaf || ns-nl < g.cfg.MinLeaf {
				continue
			}
			fnl, fnr := float64(nl), float64(ns-nl)
			screened := parentGini - (fnl*(1-float64(suml2)/(fnl*fnl))+fnr*(1-float64(sumr2)/(fnr*fnr)))/fn
			if screened <= bestGain-giniGuard {
				continue
			}
			gl := giniFromCounts(left, nl)
			gr := giniRight(counts, left, ns-nl)
			gain := parentGini - (fnl*gl+fnr*gr)/fn
			if gain > bestGain {
				bestGain = gain
				feat = f
				thr = v + (next-v)/2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

func giniFromCounts(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	s := 0.0
	fn := float64(n)
	for _, c := range counts {
		p := float64(c) / fn
		s += p * p
	}
	return 1 - s
}

// giniRight computes Gini of (total - left) without materialising it.
func giniRight(total, left []int, n int) float64 {
	if n == 0 {
		return 0
	}
	s := 0.0
	fn := float64(n)
	for c := range total {
		p := float64(total[c]-left[c]) / fn
		s += p * p
	}
	return 1 - s
}
