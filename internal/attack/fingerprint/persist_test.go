package fingerprint_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"testing"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/features"
	"ltefp/internal/snapshot"
)

// rawNode is one forest node in the v1 model file's field order, so
// tests can write trees the encoder never would; encodeV2 writes the same
// node as a v2 record (see forest.Encode).
type rawNode struct {
	feature     int64
	threshold   float64
	left, right int64
	dist        []float32
	key         uint64 // the threshold's order key, set when read back
}

// rawLeaf is the feature value that marks a leaf.
const rawLeaf = -1

// The forest layouts a test can write.
const (
	layoutV1 = 1
	layoutV2 = 2
)

// orderedKey is the forest's threshold order (forest/batch.go): an
// unsigned key whose order matches float order, with -0 folded onto +0.
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

// predict is the per-row reference walk: each tree from its first node
// to a leaf, going left when the feature's key is at most the node's,
// leaf distributions summed in tree order, normalised, and the first
// most probable class returned.
func (f rawForest) predict(x []float64) int {
	votes := make([]float64, len(f.classes))
	for _, nodes := range f.trees {
		j := 0
		for nodes[j].feature != rawLeaf {
			n := nodes[j]
			if orderedKey(x[n.feature]) <= n.key {
				j = int(n.left)
			} else {
				j = int(n.right)
			}
		}
		for c, p := range nodes[j].dist {
			votes[c] += float64(p)
		}
	}
	total := 0.0
	for _, v := range votes {
		total += v
	}
	best := 0
	for c := range votes {
		if total > 0 {
			votes[c] /= total
		}
		if votes[c] > votes[best] {
			best = c
		}
	}
	return best
}

// readRawForest reads one forest of a model payload field by field, in
// whichever layout it was written.
func readRawForest(d *snapshot.Decoder) rawForest {
	var f rawForest
	layout := d.Raw(1)
	if layout == nil || layout[0] == 0 {
		return f
	}
	f.classes = make([]string, d.Uvarint())
	for i := range f.classes {
		f.classes[i] = d.Str()
	}
	if layout[0] == layoutV1 {
		f.trees = make([][]rawNode, d.Uvarint())
		for ti := range f.trees {
			f.trees[ti] = make([]rawNode, d.Uvarint())
			for j := range f.trees[ti] {
				n := &f.trees[ti][j]
				n.feature = d.Varint()
				n.threshold = d.F64()
				n.key = orderedKey(n.threshold)
				n.left = d.Varint()
				n.right = d.Varint()
				n.dist = make([]float32, d.Uvarint())
				for k := range n.dist {
					n.dist[k] = d.F32()
				}
			}
		}
		return f
	}
	roots := make([]int, d.Uvarint())
	nodes := int(d.Uvarint())
	d.Uvarint() // leaf count
	for i := range roots {
		roots[i] = int(d.U32())
	}
	f.trees = make([][]rawNode, len(roots))
	for ti := range f.trees {
		end := nodes
		if ti+1 < len(roots) {
			end = roots[ti+1]
		}
		f.trees[ti] = make([]rawNode, end-roots[ti])
		for j := range f.trees[ti] {
			n := &f.trees[ti][j]
			n.key = d.U64()
			n.feature = int64(int32(d.U32()))
			n.left = int64(j + 1)
			n.right = int64(int32(d.U32()))
			if n.right == int64(j) {
				n.feature = rawLeaf
			}
		}
	}
	for _, tree := range f.trees {
		for j := range tree {
			if tree[j].feature == rawLeaf {
				tree[j].dist = make([]float32, len(f.classes))
				for k := range tree[j].dist {
					tree[j].dist[k] = d.F32()
				}
			}
		}
	}
	return f
}

// readRawModel reads a model payload FromSections accepted back into its
// hand-written form.
func readRawModel(t *testing.T, payload []byte) rawModel {
	t.Helper()
	d := snapshot.NewDecoder(payload)
	m := rawModel{category: readRawForest(d)}
	byCat := map[int64]rawForest{}
	for i := d.Uvarint(); i > 0; i-- {
		cat := d.Varint()
		byCat[cat] = readRawForest(d)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("accepted payload does not parse: %v", err)
	}
	for _, cat := range appmodel.Categories() {
		m.perCategory = append(m.perCategory, byCat[int64(cat)])
	}
	return m
}

// predict classifies one window vector through the hierarchy row by row.
func (m rawModel) predict(x []float64) string {
	ci := m.category.predict(x)
	cat := appmodel.Categories()[ci]
	return appmodel.ByCategory(cat)[m.perCategory[ci].predict(x)].Name
}

// rawForest is one forest of a hand-written model.
type rawForest struct {
	classes []string
	trees   [][]rawNode
}

// encode writes the forest in the given layout.
func (f rawForest) encode(e *snapshot.Encoder, layout int) {
	e.Uvarint(uint64(layout))
	e.Uvarint(uint64(len(f.classes)))
	for _, c := range f.classes {
		e.Str(c)
	}
	if layout == layoutV2 {
		f.encodeV2(e)
		return
	}
	e.Uvarint(uint64(len(f.trees)))
	for _, nodes := range f.trees {
		e.Uvarint(uint64(len(nodes)))
		for _, n := range nodes {
			e.Varint(n.feature)
			e.F64(n.threshold)
			e.Varint(n.left)
			e.Varint(n.right)
			e.Uvarint(uint64(len(n.dist)))
			for _, p := range n.dist {
				e.F32(p)
			}
		}
	}
}

// encodeV2 writes the v2 counts and arrays: a leaf as a self-loop record,
// an internal node as its threshold's key, feature and right child (the
// layout has no left child), and every node's distribution in the arena.
func (f rawForest) encodeV2(e *snapshot.Encoder) {
	nodes, leaves := 0, 0
	for _, tree := range f.trees {
		nodes += len(tree)
		for _, n := range tree {
			if n.feature == rawLeaf {
				leaves++
			}
		}
	}
	e.Uvarint(uint64(len(f.trees)))
	e.Uvarint(uint64(nodes))
	e.Uvarint(uint64(leaves))
	root := 0
	for _, tree := range f.trees {
		e.U32(uint32(root))
		root += len(tree)
	}
	for _, tree := range f.trees {
		for j, n := range tree {
			if n.feature == rawLeaf {
				e.U64(0)
				e.U32(0)
				e.U32(uint32(j))
				continue
			}
			e.U64(orderedKey(n.threshold))
			e.U32(uint32(n.feature))
			e.U32(uint32(n.right))
		}
	}
	for _, tree := range f.trees {
		for _, n := range tree {
			for _, p := range n.dist {
				e.F32(p)
			}
		}
	}
}

// rawModel is a hand-written classifier: the category forest and one app
// forest per category, in appmodel.Categories order.
type rawModel struct {
	category    rawForest
	perCategory []rawForest
}

// tinyModel builds a small valid hierarchy: enough structure to exercise
// every branch of the codec without a training run. Every forest splits
// on feature 2 at 0.5 and sends the two sides to different classes.
func tinyModel() rawModel {
	mk := func(classes ...string) rawForest {
		leaf := func(dist ...float32) rawNode { return rawNode{feature: rawLeaf, dist: dist} }
		return rawForest{classes: classes, trees: [][]rawNode{
			{{feature: 2, threshold: 0.5, left: 1, right: 2}, leaf(1, 0, 0), leaf(0, 1, 0)},
			{leaf(0.2, 0.3, 0.5)},
		}}
	}
	m := rawModel{category: mk("streaming", "messaging", "voip")}
	for _, cat := range appmodel.Categories() {
		var names []string
		for _, app := range appmodel.ByCategory(cat) {
			names = append(names, app.Name)
		}
		m.perCategory = append(m.perCategory, mk(names...))
	}
	return m
}

// sections encodes the model as a classifier's two sections, its forests
// in the given layout.
func (m rawModel) sections(layout int) map[string][]byte {
	meta := snapshot.NewEncoder(16)
	meta.Duration(100 * time.Millisecond)
	meta.Duration(100 * time.Millisecond)
	model := snapshot.NewEncoder(1 << 10)
	m.category.encode(model, layout)
	model.Uvarint(uint64(len(m.perCategory)))
	for i, f := range m.perCategory {
		model.Varint(int64(appmodel.Categories()[i]))
		f.encode(model, layout)
	}
	return map[string][]byte{
		fingerprint.SectionMeta:  meta.Bytes(),
		fingerprint.SectionModel: model.Bytes(),
	}
}

// file wraps the model's sections in a standalone model-file container.
func (m rawModel) file(t *testing.T, layout int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sections := m.sections(layout)
	for _, name := range []string{fingerprint.SectionMeta, fingerprint.SectionModel} {
		if err := w.Section(name, sections[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func tinyClassifier(t *testing.T) *fingerprint.Classifier {
	t.Helper()
	c, err := fingerprint.FromSections(tinyModel().sections(layoutV2))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSaveRejectsGobEra pins the motivating property of the format
// change: a checkpoint or model file written by the old gob encoder is
// detectably rejected (bad magic), never half-decoded into a wrong model.
func TestSaveRejectsGobEra(t *testing.T) {
	var buf bytes.Buffer
	type oldPersisted struct {
		Window, Stride time.Duration
	}
	if err := gob.NewEncoder(&buf).Encode(oldPersisted{Window: time.Second}); err != nil {
		t.Fatal(err)
	}
	_, err := fingerprint.Load(&buf)
	if !errors.Is(err, snapshot.ErrMagic) {
		t.Fatalf("loading a gob-era file: err = %v, want ErrMagic", err)
	}
}

func TestSaveDeterministicBytes(t *testing.T) {
	c := tinyClassifier(t)
	var one, two bytes.Buffer
	if err := c.Save(&one); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(&two); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Fatal("two saves of the same classifier produced different bytes")
	}
}

func TestLoadDetectsDamage(t *testing.T) {
	c := tinyClassifier(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	for cut := 0; cut < len(raw); cut += 7 {
		if _, err := fingerprint.Load(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes loaded successfully", cut)
		}
	}
	for i := 0; i < len(raw); i += 11 {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x10
		if _, err := fingerprint.Load(bytes.NewReader(bad)); err == nil {
			t.Fatalf("bit flip at byte %d loaded successfully", i)
		}
	}
}

// TestLoadValidatesStructure pins that structurally impossible models are
// rejected as corrupt even when the container checksums pass (i.e. a buggy
// writer, not wire corruption), in both forest layouts.
func TestLoadValidatesStructure(t *testing.T) {
	for _, layout := range []int{layoutV1, layoutV2} {
		if _, err := fingerprint.Load(bytes.NewReader(tinyModel().file(t, layout))); err != nil {
			t.Fatalf("layout %d: valid model rejected: %v", layout, err)
		}
		for _, tc := range []struct {
			name   string
			v1Only bool // the v2 layout stores no left child
			mutate func(m *rawModel)
		}{
			{"child out of range", false, func(m *rawModel) { m.category.trees[0][0].right = 99 }},
			// Children swapped: the layout is no longer preorder, so a walk
			// that takes the next node as the left child lands elsewhere.
			{"left child not the next node", true, func(m *rawModel) {
				m.category.trees[0][0].left, m.category.trees[0][0].right = 2, 1
			}},
			{"wrong distribution arity", false, func(m *rawModel) { m.category.trees[0][1].dist = []float32{1} }},
			{"invalid feature", false, func(m *rawModel) { m.category.trees[0][0].feature = -7 }},
			{"feature beyond the window vector", false, func(m *rawModel) { m.category.trees[0][0].feature = features.TotalDim }},
			{"tree without nodes", false, func(m *rawModel) { m.category.trees[1] = nil }},
			{"internal node with a distribution", false, func(m *rawModel) { m.category.trees[0][0].dist = []float32{1, 0, 0} }},
			{"missing category forest", false, func(m *rawModel) { m.perCategory = m.perCategory[:2] }},
			{"wrong class count", false, func(m *rawModel) {
				m.category = rawForest{classes: []string{"a", "b"}, trees: [][]rawNode{{{feature: -1, dist: []float32{1, 0}}}}}
			}},
		} {
			if tc.v1Only && layout != layoutV1 {
				continue
			}
			m := tinyModel()
			tc.mutate(&m)
			if _, err := fingerprint.Load(bytes.NewReader(m.file(t, layout))); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Errorf("layout %d, %s: err = %v, want ErrCorrupt", layout, tc.name, err)
			}
		}
	}
}

// TestSectionsEmbed pins the daemon's usage: classifier sections written
// into a shared container alongside other sections still round-trip.
func TestSectionsEmbed(t *testing.T) {
	c := tinyClassifier(t)
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Section("daemon.meta", []byte("unrelated")); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendTo(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sections, err := snapshot.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := fingerprint.FromSections(sections)
	if err != nil {
		t.Fatal(err)
	}
	if got.Window != c.Window || len(got.PerCategory) != len(c.PerCategory) {
		t.Fatalf("embedded classifier did not round-trip: %+v", got)
	}
}

// FuzzClassifierSections feeds mutated model payloads to FromSections,
// below the container checksum. Whatever the bytes, decoding must not
// panic, and a classifier it accepts must classify: PredictBatch agrees
// with a per-row walk of the payload's own trees (rawModel.predict) on
// every probe vector, and its saved file loads.
func FuzzClassifierSections(f *testing.F) {
	// The v1 seeds first, then the same shapes in v2.
	valid := tinyModel().sections(layoutV1)
	for _, layout := range []int{layoutV1, layoutV2} {
		model := tinyModel().sections(layout)[fingerprint.SectionModel]
		f.Add(model)
		f.Add(model[:len(model)/2])
		swapped := tinyModel()
		swapped.category.trees[0][0].left, swapped.category.trees[0][0].right = 2, 1
		f.Add(swapped.sections(layout)[fingerprint.SectionModel])
	}

	probes := make([][]float64, 6)
	for i := range probes {
		probes[i] = make([]float64, features.TotalDim)
		for j := range probes[i] {
			probes[i][j] = float64((i+1)*(j-3)) / 4
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		c, err := fingerprint.FromSections(map[string][]byte{
			fingerprint.SectionMeta:  valid[fingerprint.SectionMeta],
			fingerprint.SectionModel: payload,
		})
		if err != nil {
			return
		}
		raw := readRawModel(t, payload)
		batch := c.PredictBatch(probes)
		for i, x := range probes {
			if app := raw.predict(x); app != batch[i] {
				t.Fatalf("probe %d: per-row walk %s, PredictBatch %s", i, app, batch[i])
			}
		}
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := fingerprint.Load(&buf); err != nil {
			t.Fatalf("saved accepted model does not load: %v", err)
		}
	})
}
