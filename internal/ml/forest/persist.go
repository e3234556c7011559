package forest

import (
	"fmt"

	"ltefp/internal/snapshot"
)

// leafMark is the feature index that marks a leaf in the model file.
const leafMark = -1

// Encode appends a forest, or the absence of one (nil), to a snapshot
// payload. The layout is the model file's: class names, then each tree as
// its node count and nodes in preorder. A node is its feature (leafMark
// for a leaf), threshold, left and right child indices relative to the
// tree, and class distribution (empty at internal nodes; a leaf writes a
// zero threshold and children).
func Encode(e *snapshot.Encoder, f *Forest) {
	if f == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	e.Uvarint(uint64(len(f.Classes)))
	for _, c := range f.Classes {
		e.Str(c)
	}
	e.Uvarint(uint64(len(f.roots)))
	for t, base := range f.roots {
		end := f.treeEnd(t)
		e.Uvarint(uint64(end - base))
		for i := base; i < end; i++ {
			n := f.nodes[i]
			if n.right == i {
				e.Varint(leafMark)
				e.F64(0)
				e.Varint(0)
				e.Varint(0)
				dist := f.leaf(i)
				e.Uvarint(uint64(len(dist)))
				for _, p := range dist {
					e.F32(float32(p))
				}
				continue
			}
			e.Varint(int64(n.feat))
			e.F64(keyFloat(n.key))
			e.Varint(int64(i + 1 - base))
			e.Varint(int64(n.right - base))
			e.Uvarint(0)
		}
	}
}

// Decode reads one forest written by Encode, returning nil where Encode
// wrote a nil forest. Nothing in the payload is trusted: a forest must
// have classes, and every tree nodes; every leaf must carry a distribution
// over the declared classes; and every internal node must split on a
// feature below dim, with its left child the next node and its right child
// after it inside the tree. Each violation is an error wrapping
// snapshot.ErrCorrupt, so any forest Decode returns walks every row of dim
// features to a leaf, on every prediction path alike.
//
// The payload is read twice: a first pass validates it and counts the
// nodes and leaves, and the second fills arrays allocated once at their
// final size. Decoding thus allocates the same few times for any number of
// trees or nodes.
func Decode(d *snapshot.Decoder, dim int) (*Forest, error) {
	if !d.Bool() {
		return nil, d.Err()
	}
	classes := make([]string, d.Count(1))
	for i := range classes {
		classes[i] = d.Str()
	}
	nTrees := d.Count(1)
	if d.Err() != nil {
		return nil, d.Err()
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("%w: forest has no classes", snapshot.ErrCorrupt)
	}
	probe := *d
	nodes, leaves, err := readTrees(&probe, nil, nTrees, len(classes), dim)
	if err != nil {
		return nil, err
	}
	f := &Forest{
		Classes: classes,
		nodes:   make([]node, nodes),
		roots:   make([]int32, nTrees),
		leafOff: make([]int32, nodes),
		dists:   make([]float64, 0, leaves*len(classes)),
	}
	if _, _, err := readTrees(d, f, nTrees, len(classes), dim); err != nil {
		return nil, err
	}
	return f, nil
}

// readTrees reads nTrees trees, validating each node as Decode describes,
// and returns the total node and leaf counts. With a nil f it only
// validates and counts; otherwise it fills f's arrays, which must be sized
// for the counts a first pass over the same bytes returned.
func readTrees(d *snapshot.Decoder, f *Forest, nTrees, classes, dim int) (nodes, leaves int, err error) {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: "+format, append([]any{snapshot.ErrCorrupt}, args...)...)
	}
	for t := 0; t < nTrees; t++ {
		n := d.Count(12) // feature + 8-byte threshold + left + right + dist count
		if d.Err() != nil {
			return 0, 0, d.Err()
		}
		if n == 0 {
			return 0, 0, corrupt("tree %d has no nodes", t)
		}
		base := int32(nodes)
		if f != nil {
			f.roots[t] = base
		}
		for j := 0; j < n; j++ {
			feat := d.Varint()
			thr := d.F64()
			left := d.Varint()
			right := d.Varint()
			nDist := d.Count(4)
			if d.Err() != nil {
				return 0, 0, d.Err()
			}
			self := base + int32(j)
			switch {
			case feat == leafMark:
				if nDist != classes {
					return 0, 0, corrupt("leaf node %d/%d: %d-class distribution, forest has %d classes",
						t, j, nDist, classes)
				}
				leaves++
				if f != nil {
					f.nodes[self] = node{right: self}
					f.leafOff[self] = int32(len(f.dists))
				}
				for k := 0; k < nDist; k++ {
					if p := d.F32(); f != nil {
						f.dists = append(f.dists, float64(p))
					}
				}
			case feat < 0 || feat >= int64(dim):
				return 0, 0, corrupt("node %d/%d: invalid feature %d for %d-feature rows", t, j, feat, dim)
			case left != int64(j+1):
				return 0, 0, corrupt("node %d/%d: left child %d is not the next node %d", t, j, left, j+1)
			case right <= int64(j) || right >= int64(n):
				return 0, 0, corrupt("node %d/%d: right child %d out of range [%d,%d)", t, j, right, j+1, n)
			case nDist != 0:
				return 0, 0, corrupt("internal node %d/%d carries a %d-class distribution", t, j, nDist)
			default:
				if f != nil {
					f.nodes[self] = node{key: orderedKey(thr), feat: int32(feat), right: base + int32(right)}
				}
			}
		}
		nodes += n
	}
	return nodes, leaves, d.Err()
}
