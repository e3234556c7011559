package forest

import (
	"encoding/binary"
	"fmt"
	"math"

	"ltefp/internal/snapshot"
)

// An encoded forest starts with one layout byte. Encode writes the v2
// layout; the v1 layout is what model files written before it hold, and
// DecodeCompat still reads it. A v1 forest's first byte is the Bool true
// its encoder wrote, so files of either age carry the tag unchanged.
const (
	layoutAbsent = 0 // Encode(nil)
	layoutV1     = 1 // varint fields, node by node
	layoutV2     = 2 // fixed-width arrays
)

// recordBytes is the size of one v2 node record.
const recordBytes = 16

// leafMark is the feature index that marks a leaf in the v1 layout.
const leafMark = -1

// Encode appends a forest, or the absence of one (nil), to a snapshot
// payload, in the v2 layout:
//
//	layout byte 2
//	class count, class names                    uvarint, strings
//	tree, node and leaf counts                  3 × uvarint
//	root offsets                                trees × u32
//	node records                                nodes × 16 bytes
//	leaf distributions                          leaves × classes × f32
//
// A node record is the node (see node) as little-endian key u64, feature
// i32 and right child i32, the right child relative to its tree's root. A
// leaf is a zero record except its right child, which is itself. Leaf
// distributions follow in node order. All integers are little-endian.
func Encode(e *snapshot.Encoder, f *Forest) {
	if f == nil {
		e.Bool(false)
		return
	}
	e.Uvarint(layoutV2)
	e.Uvarint(uint64(len(f.Classes)))
	for _, c := range f.Classes {
		e.Str(c)
	}
	leaves := 0
	if k := len(f.Classes); k > 0 { // a zero Forest has neither classes nor leaves
		leaves = len(f.dists) / k
	}
	e.Uvarint(uint64(len(f.roots)))
	e.Uvarint(uint64(len(f.nodes)))
	e.Uvarint(uint64(leaves))
	b := e.Raw(4*len(f.roots) + recordBytes*len(f.nodes) + 4*len(f.dists))
	for _, r := range f.roots {
		binary.LittleEndian.PutUint32(b, uint32(r))
		b = b[4:]
	}
	for t, base := range f.roots {
		for i := base; i < f.treeEnd(t); i++ {
			n := f.nodes[i]
			binary.LittleEndian.PutUint64(b, n.key)
			binary.LittleEndian.PutUint32(b[8:], uint32(n.feat))
			binary.LittleEndian.PutUint32(b[12:], uint32(n.right-base))
			b = b[recordBytes:]
		}
	}
	for _, p := range f.dists {
		binary.LittleEndian.PutUint32(b, math.Float32bits(float32(p)))
		b = b[4:]
	}
}

// Decode reads one forest written by Encode, returning nil where Encode
// wrote a nil forest. It reads the v2 layout only (the artifact store's
// entries); DecodeCompat also reads v1 model files.
//
// Nothing in the payload is trusted: a forest must have classes, and
// every tree nodes; every leaf must carry a distribution over the
// declared classes; and every internal node must split on a feature below
// dim, with its left child the next node and its right child after it
// inside the tree. Each violation is an error wrapping
// snapshot.ErrCorrupt, so any forest Decode returns walks every row of dim
// features to a leaf.
//
// The v2 counts come first, so decoding checks the payload holds exactly
// the arrays they declare, allocates each array once at its final size,
// validates and converts the node records in one loop, and widens the
// leaf distributions in one more: the same few allocations for any number
// of trees or nodes.
func Decode(d *snapshot.Decoder, dim int) (*Forest, error) {
	return decode(d, dim, false)
}

// DecodeCompat is Decode that also reads the v1 layout, for model files
// and daemon checkpoints written before v2.
func DecodeCompat(d *snapshot.Decoder, dim int) (*Forest, error) {
	return decode(d, dim, true)
}

func decode(d *snapshot.Decoder, dim int, v1 bool) (*Forest, error) {
	b := d.Raw(1)
	if b == nil {
		return nil, d.Err()
	}
	switch layout := b[0]; {
	case layout == layoutAbsent:
		return nil, nil
	case layout == layoutV2:
		return decodeV2(d, dim)
	case layout == layoutV1 && v1:
		return decodeV1(d, dim)
	default:
		return nil, corrupt("unsupported forest layout %d", layout)
	}
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{snapshot.ErrCorrupt}, args...)...)
}

// decodeClasses reads a forest's class names, which must not be empty.
func decodeClasses(d *snapshot.Decoder) ([]string, error) {
	classes := make([]string, d.Count(1))
	for i := range classes {
		classes[i] = d.Str()
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if len(classes) == 0 {
		return nil, corrupt("forest has no classes")
	}
	return classes, nil
}

// decodeV2 reads the v2 layout after its layout byte.
func decodeV2(d *snapshot.Decoder, dim int) (*Forest, error) {
	classes, err := decodeClasses(d)
	if err != nil {
		return nil, err
	}
	k := len(classes)
	nTrees := d.Count(4 + recordBytes) // a tree holds a root offset and a node
	nNodes := d.Count(recordBytes)
	nLeaves := d.Count(4 * k)
	if d.Err() != nil {
		return nil, d.Err()
	}
	if nNodes > math.MaxInt32 {
		return nil, corrupt("%d nodes exceed the int32 node index", nNodes)
	}
	if nTrees == 0 && nNodes != 0 {
		return nil, corrupt("%d nodes outside any tree", nNodes)
	}
	b := d.Raw(4*nTrees + recordBytes*nNodes + 4*k*nLeaves)
	if b == nil {
		return nil, d.Err()
	}
	offsets := make([]int32, nTrees+nNodes) // roots, then leaf offsets
	f := &Forest{
		Classes: classes,
		nodes:   make([]node, nNodes),
		roots:   offsets[:nTrees:nTrees],
		leafOff: offsets[nTrees:],
		dists:   make([]float64, k*nLeaves),
	}
	// Roots rise strictly from 0 and stay inside the nodes, so every tree
	// is non-empty and the trees cover every node.
	for t := range f.roots {
		base := int32(binary.LittleEndian.Uint32(b[4*t:]))
		if t == 0 && base != 0 || t > 0 && base <= f.roots[t-1] || base >= int32(nNodes) {
			return nil, corrupt("tree %d: root offset %d does not start a non-empty tree of %d nodes", t, base, nNodes)
		}
		f.roots[t] = base
	}
	recs := b[4*nTrees : 4*nTrees+recordBytes*nNodes]
	leaves := 0
	for t, base := range f.roots {
		end := f.treeEnd(t)
		size := end - base
		for i := base; i < end; i++ {
			r := recs[recordBytes*int(i):]
			key := binary.LittleEndian.Uint64(r)
			feat := int32(binary.LittleEndian.Uint32(r[8:]))
			right := int32(binary.LittleEndian.Uint32(r[12:]))
			j := i - base
			switch {
			case right == j:
				if key != 0 || feat != 0 {
					return nil, corrupt("leaf node %d/%d carries a split", t, j)
				}
				if leaves == nLeaves {
					return nil, corrupt("forest declares %d leaves, holds more", nLeaves)
				}
				f.nodes[i] = node{right: i}
				f.leafOff[i] = int32(leaves * k)
				leaves++
			case feat < 0 || int(feat) >= dim:
				return nil, corrupt("node %d/%d: invalid feature %d for %d-feature rows", t, j, feat, dim)
			case right <= j || right >= size:
				return nil, corrupt("node %d/%d: right child %d out of range [%d,%d)", t, j, right, j+1, size)
			default:
				f.nodes[i] = node{key: key, feat: feat, right: base + right}
			}
		}
	}
	if leaves != nLeaves {
		return nil, corrupt("forest declares %d leaves, holds %d", nLeaves, leaves)
	}
	p := b[4*nTrees+recordBytes*nNodes:]
	for i := range f.dists {
		f.dists[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:])))
	}
	return f, nil
}

// decodeV1 reads the v1 layout after its layout byte: each tree as its
// node count and nodes in preorder, a node being its feature (leafMark for
// a leaf), threshold, left and right child indices relative to the tree,
// and class distribution (empty at internal nodes). The payload is read
// twice: a first pass validates it and counts the nodes and leaves, and
// the second fills arrays allocated once at their final size.
func decodeV1(d *snapshot.Decoder, dim int) (*Forest, error) {
	classes, err := decodeClasses(d)
	if err != nil {
		return nil, err
	}
	nTrees := d.Count(1)
	if d.Err() != nil {
		return nil, d.Err()
	}
	probe := *d
	nodes, leaves, err := readTreesV1(&probe, nil, nTrees, len(classes), dim)
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
	if _, _, err := readTreesV1(d, f, nTrees, len(classes), dim); err != nil {
		return nil, err
	}
	return f, nil
}

// readTreesV1 reads nTrees v1 trees, validating each node as Decode
// describes, and returns the total node and leaf counts. With a nil f it
// only validates and counts; otherwise it fills f's arrays, which must be
// sized for the counts a first pass over the same bytes returned.
func readTreesV1(d *snapshot.Decoder, f *Forest, nTrees, classes, dim int) (nodes, leaves int, err error) {
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
