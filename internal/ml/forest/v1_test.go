package forest

import "ltefp/internal/snapshot"

// EncodeV1 writes a forest in the v1 layout, the one model files written
// before v2 hold (see decodeV1), so tests can make v1 bytes from any
// forest.
func EncodeV1(e *snapshot.Encoder, f *Forest) {
	if f == nil {
		e.Bool(false)
		return
	}
	e.Uvarint(layoutV1)
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

// KeyFloat returns the threshold a node key was made from (keyFloat).
func KeyFloat(k uint64) float64 { return keyFloat(k) }
