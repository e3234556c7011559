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
// the per-feature order intact through stable partitioning. A tree's
// columns carry one entry per unique drawn row (about 63% of a full
// bootstrap), and a Trainer keeps the sorted view and one grower's buffers
// per worker across Train calls, so training several forests in a row
// allocates its scratch once. Tree growth is allocation-free after
// warm-up, and the trees are bit-identical to the original sort-per-node
// implementation (guarded by TestGoldenTrees and, for reuse,
// TestTrainerReuseMatchesFresh).
//
// A forest has one representation (see Forest): a flat array of 16-byte
// preorder nodes, per-tree root offsets and one leaf-distribution arena.
// Train lays the grown trees out in it, the batched lane kernels (the one
// prediction path) walk it, and Encode and Decode persist it in the model-file layout, which no other package knows.
package forest

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"

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

// Forest is a trained random forest in its one in-memory form, the form
// every prediction path walks, Encode writes and Decode fills: all trees'
// nodes in one flat array (see node), tree after tree, each tree in DFS
// preorder so an internal node's left child is the next node; roots[t] is
// tree t's first node and every right index is absolute. Leaf class
// distributions live in one arena, leafOff[i] giving leaf i's offset into
// it (zero at internal nodes). The arena holds float64: distributions are
// computed and persisted as float32, and widening them once here is exact,
// so accumulating them cannot change a result bit.
type Forest struct {
	Classes []string

	nodes   []node
	roots   []int32
	leafOff []int32
	dists   []float64
}

// leaf returns leaf i's class distribution.
func (f *Forest) leaf(i int32) []float64 {
	off := f.leafOff[i]
	return f.dists[off : off+int32(len(f.Classes))]
}

// treeEnd returns one past tree t's last node.
func (f *Forest) treeEnd(t int) int32 {
	if t+1 < len(f.roots) {
		return f.roots[t+1]
	}
	return int32(len(f.nodes))
}

// Size returns the bytes the forest's arrays occupy.
func (f *Forest) Size() int64 {
	return int64(len(f.nodes))*16 + int64(len(f.roots)+len(f.leafOff))*4 + int64(len(f.dists))*8
}

// Train fits a forest on the dataset with a fresh Trainer; see
// Trainer.Train.
func Train(d *dataset.Dataset, cfg Config) (*Forest, error) {
	var t Trainer
	return t.Train(d, cfg)
}

// Trainer fits forests and keeps its training scratch between calls: the
// sorted column view and one grower per worker. A caller that trains
// several forests in a row (the fingerprint hierarchy trains four) pays
// for that scratch once, sized by the largest dataset. The zero value is
// ready; a Trainer must not train two forests concurrently. Its scratch
// lives as long as the Trainer does, so keep one only for the span of
// the training it serves.
type Trainer struct {
	cols    sortedCols
	growers []*grower // indexed by par.Workers' worker index
}

// Train fits a forest on the dataset. Trees are grown on up to
// cfg.Workers goroutines (par.Workers), each from a deterministic per-tree
// stream, so results do not depend on scheduling or on what the Trainer
// trained before; each goroutine reuses its worker's grower for all the
// trees it grows, and its trees stay where the grower wrote them. The
// trees are then laid out in tree order in the forest's flat arrays,
// copied once, after which the growers' output blocks are free for the
// next call.
func (tr *Trainer) Train(d *dataset.Dataset, cfg Config) (*Forest, error) {
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
	trees := make([]grownTree, cfg.Trees)
	tr.cols.fill(d, cfg.Workers)
	for len(tr.growers) < min(cfg.Workers, cfg.Trees) {
		tr.growers = append(tr.growers, new(grower))
	}
	par.Workers(cfg.Trees, cfg.Workers, func(w int, next func() (int, bool)) {
		g := tr.growers[w]
		g.reset(d, cfg, &tr.cols)
		for t, ok := next(); ok; t, ok = next() {
			trees[t] = g.grow(treeRNG(cfg.Seed, t))
		}
	})

	nodes, dists := 0, 0
	for _, t := range trees {
		nodes += len(t.nodes)
		dists += len(t.dists)
	}
	f := &Forest{
		Classes: d.Classes,
		nodes:   make([]node, 0, nodes),
		roots:   make([]int32, len(trees)),
		leafOff: make([]int32, nodes),
		dists:   make([]float64, 0, dists),
	}
	classes := int32(len(d.Classes))
	for ti, t := range trees {
		base := int32(len(f.nodes))
		off := int32(len(f.dists))
		f.roots[ti] = base
		for j, n := range t.nodes {
			if n.right == int32(j) {
				f.leafOff[base+int32(j)] = off
				off += classes
			}
			n.right += base
			f.nodes = append(f.nodes, n)
		}
		for _, p := range t.dists {
			f.dists = append(f.dists, float64(p))
		}
	}
	return f, nil
}

// treeRNG derives tree t's deterministic random stream. The out-of-bag
// estimate in the tests relies on this to reconstruct each tree's
// bootstrap sample, so the derivation must stay in lock-step with grow's
// draw order.
func treeRNG(seed uint64, t int) *sim.RNG {
	return sim.NewRNG(seed*0x100000001b3 + uint64(t) + 1)
}

// sortedCols is the shared, read-only sorted view of one Train call's
// dataset: for every feature, the dataset rows in ascending value order
// plus the value and class label of each position in that order. Growers
// stream these flat arrays sequentially instead of chasing d.X row
// pointers. A Trainer refills it per call and keeps its arrays.
type sortedCols struct {
	rows []int32   // dim*n dataset rows, rows[f*n:(f+1)*n] in feature f's order
	vals []float64 // dim*n values, vals[f*n+i] = X[rows[f*n+i]][f]
	y16  []uint16  // dataset labels by row, compact for cache residency
}

// fill sorts every feature column of the dataset (in parallel, bounded by
// workers), reusing the view's arrays when they are large enough.
// Per-tree bootstrap column orders are then derived with counting passes
// instead of per-node comparison sorts.
func (c *sortedCols) fill(d *dataset.Dataset, workers int) {
	dim, n := d.Dim(), d.Len()
	c.rows = resize(c.rows, dim*n)
	c.vals = resize(c.vals, dim*n)
	c.y16 = resize(c.y16, n)
	for r, y := range d.Y {
		c.y16[r] = uint16(y)
	}
	_ = par.For(dim, workers, func(f int) error { // never fails
		ord := c.rows[f*n : (f+1)*n]
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
		vals := c.vals[f*n : (f+1)*n]
		for i, r := range ord {
			vals[i] = d.X[r][f]
		}
		return nil
	})
}

// resize returns s at length n, reallocating only when its capacity is
// short. Reused elements keep their old values.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// grownTree is one tree as a grower emits it: nodes in preorder with
// right indices relative to the tree's root, and its leaves' class
// distributions in node order. Both slices alias the grower's output
// blocks. Train lays the trees out in the forest.
type grownTree struct {
	nodes []node
	dists []float32
}

// blockTrees sizes a grower's output blocks, in trees as large as the
// largest the grower has grown so far.
const blockTrees = 4

// grower carries one worker's training state. A Trainer keeps it across
// Train calls: reset points it at a call's dataset and resizes its scratch
// only where the dataset needs more, and grow enlarges the column buffers
// when a tree draws more unique rows than they hold. Trees are written
// into output blocks that hold several trees each; a tree that finishes
// stays in its block, which a new block replaces (without a copy) when it
// may not hold another tree. reset rewinds the current block, so it must
// not run until the previous call's trees have been copied out.
type grower struct {
	d       *dataset.Dataset
	cfg     Config
	classes int
	dim     int
	S       int         // bootstrap sample size
	U       int         // unique rows in the current tree's sample: the column stride
	cols    *sortedCols // shared read-only sorted dataset view

	rng      *sim.RNG
	nodes    []node    // output block: finished trees, then the one growing
	dists    []float32 // output block for leaf distributions
	maxNodes int       // largest tree grown so far, in nodes
	maxDists int       // and in distribution values

	idx  []int32 // bootstrap row per sample position
	y    []int32 // label per sample position
	mult []int32 // dataset row -> bootstrap multiplicity

	// Column state double-buffers: a node's segments live in one buffer and
	// each partition writes both children into the other, so every element
	// is stored exactly once per split with no scratch or copy-back. Only
	// values and rows are carried; labels and weights are row lookups into
	// the small cols.y16 and mult arrays. Feature f's column is
	// [f*U, (f+1)*U) of each buffer, and both hold at least dim*U+1
	// entries (see grow).
	colVal [2][]float64 // feature values, sorted within node segments
	colRow [2][]int32   // dataset rows, parallel to colVal

	side    []uint8 // per-dataset-row goes-left flag (1 = left) during partitioning
	left    []int   // split-search left class counts
	lcounts [][]int // per-depth left-child count buffers
	counts  [][]int // per-depth class-count buffers
	perm    []int   // feature subsample permutation
}

// reset prepares the grower for one Train call's dataset and
// configuration, keeping every buffer that is already large enough.
func (g *grower) reset(d *dataset.Dataset, cfg Config, cols *sortedCols) {
	n, dim, S := d.Len(), d.Dim(), cfg.SubsampleSize
	if classes := len(d.Classes); classes != g.classes {
		g.classes = classes
		g.left = make([]int, classes)
		g.lcounts, g.counts = nil, nil
	}
	g.d, g.cfg, g.dim, g.S, g.cols = d, cfg, dim, S, cols
	g.idx = resize(g.idx, S)
	g.y = resize(g.y, S)
	g.mult = resize(g.mult, n)
	// Partitioning clears every flag it sets, so reused flags are zero.
	g.side = resize(g.side, n)
	g.perm = resize(g.perm, dim)
	g.nodes, g.dists = g.nodes[:0], g.dists[:0]
}

// grow fits one tree from its deterministic stream. The draw order —
// SubsampleSize bootstrap draws, then one feature permutation per internal
// node in depth-first order — matches the original implementation exactly,
// which the out-of-bag estimate and the golden-tree test rely on.
func (g *grower) grow(rng *sim.RNG) grownTree {
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
	// free of the unpredictable w==0 branch; it therefore writes one slot
	// past a column's U entries. That slot is the next column's first
	// entry, which the next column's fill rewrites, so the buffers need
	// dim*U+1 entries. They grow with some headroom when a tree needs
	// more, so regrowth stays rare across the trees of a forest.
	mult := g.mult
	for i := range mult {
		mult[i] = 0
	}
	U := 0
	for _, r := range g.idx {
		if mult[r] == 0 {
			U++
		}
		mult[r]++
	}
	g.U = U
	if need := g.dim*U + 1; len(g.colVal[0]) < need {
		need += need / 32
		for b := range g.colVal {
			g.colVal[b] = make([]float64, need)
			g.colRow[b] = make([]int32, need)
		}
	}
	for f := 0; f < g.dim; f++ {
		cv := g.colVal[0][f*U : (f+1)*U+1]
		cr := g.colRow[0][f*U : (f+1)*U+1]
		vals := g.cols.vals[f*n : (f+1)*n]
		j := 0
		for i, r := range g.cols.rows[f*n : (f+1)*n] {
			w := mult[r]
			cv[j] = vals[i]
			cr[j] = r
			j += int(uint32(-w) >> 31) // 1 iff w > 0
		}
	}

	// Root class counts stream the bootstrap labels once; every deeper
	// node's counts are derived by its parent during split bookkeeping.
	if cap(g.nodes)-len(g.nodes) < g.maxNodes {
		g.nodes = make([]node, 0, blockTrees*g.maxNodes)
	}
	if cap(g.dists)-len(g.dists) < g.maxDists {
		g.dists = make([]float32, 0, blockTrees*g.maxDists)
	}
	lo, dlo := len(g.nodes), len(g.dists)
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
	t := grownTree{nodes: g.nodes[lo:len(g.nodes):len(g.nodes)], dists: g.dists[dlo:len(g.dists):len(g.dists)]}
	for i := range t.nodes {
		t.nodes[i].right -= int32(lo)
	}
	g.maxNodes = max(g.maxNodes, len(t.nodes))
	g.maxDists = max(g.maxDists, len(t.dists))
	return t
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
// — one entry per unique bootstrap row, weighted by multiplicity — in
// preorder, and returns its node index. counts/ns describe the node's class distribution
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
	base := feat * g.U
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
			o := f*g.U + lo
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
	g.nodes = append(g.nodes, node{key: orderedKey(thr), feat: int32(feat)})
	// The left child is emitted next, at self+1.
	if leftLeaf {
		g.leaf(lcounts, nl)
	} else {
		g.build(lo, lo+ml, depth+1, lcounts, nl, b)
	}
	var right int32
	if rightLeaf {
		right = g.leaf(counts, ns-nl)
	} else {
		right = g.build(lo+ml, hi, depth+1, counts, ns-nl, b)
	}
	g.nodes[self].right = right
	return self
}

// leaf appends a leaf node (a self-loop, see node) and its class
// distribution, in float32: the precision the model file stores.
func (g *grower) leaf(counts []int, n int) int32 {
	self := int32(len(g.nodes))
	g.nodes = append(g.nodes, node{right: self})
	for _, v := range counts {
		p := float32(0)
		if n > 0 {
			p = float32(v) / float32(n)
		}
		g.dists = append(g.dists, p)
	}
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
		vals := g.colVal[b][f*g.U+lo : f*g.U+hi]
		rows := g.colRow[b][f*g.U+lo : f*g.U+hi]
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
