package fingerprint_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/features"
	"ltefp/internal/snapshot"
)

// rawNode is one forest node in the model file's field order (see
// forest.Encode), so tests can write trees the encoder never would.
type rawNode struct {
	feature     int64
	threshold   float64
	left, right int64
	dist        []float32
}

// rawForest is one forest of a hand-written model.
type rawForest struct {
	classes []string
	trees   [][]rawNode
}

func (f rawForest) encode(e *snapshot.Encoder) {
	e.Bool(true)
	e.Uvarint(uint64(len(f.classes)))
	for _, c := range f.classes {
		e.Str(c)
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
		leaf := func(dist ...float32) rawNode { return rawNode{feature: -1, dist: dist} }
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

// sections encodes the model as a classifier's two sections.
func (m rawModel) sections() map[string][]byte {
	meta := snapshot.NewEncoder(16)
	meta.Duration(100 * time.Millisecond)
	meta.Duration(100 * time.Millisecond)
	model := snapshot.NewEncoder(1 << 10)
	m.category.encode(model)
	model.Uvarint(uint64(len(m.perCategory)))
	for i, f := range m.perCategory {
		model.Varint(int64(appmodel.Categories()[i]))
		f.encode(model)
	}
	return map[string][]byte{
		fingerprint.SectionMeta:  meta.Bytes(),
		fingerprint.SectionModel: model.Bytes(),
	}
}

// file wraps the model's sections in a standalone model-file container.
func (m rawModel) file(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sections := m.sections()
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
	c, err := fingerprint.FromSections(tinyModel().sections())
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
// writer, not wire corruption).
func TestLoadValidatesStructure(t *testing.T) {
	if _, err := fingerprint.Load(bytes.NewReader(tinyModel().file(t))); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(m *rawModel)
	}{
		{"child out of range", func(m *rawModel) { m.category.trees[0][0].right = 99 }},
		// Children swapped: the layout is no longer preorder, so a walk
		// that takes the next node as the left child lands elsewhere.
		{"left child not the next node", func(m *rawModel) {
			m.category.trees[0][0].left, m.category.trees[0][0].right = 2, 1
		}},
		{"wrong distribution arity", func(m *rawModel) { m.category.trees[0][1].dist = []float32{1} }},
		{"invalid feature", func(m *rawModel) { m.category.trees[0][0].feature = -7 }},
		{"feature beyond the window vector", func(m *rawModel) { m.category.trees[0][0].feature = features.TotalDim }},
		{"tree without nodes", func(m *rawModel) { m.category.trees[1] = nil }},
		{"internal node with a distribution", func(m *rawModel) { m.category.trees[0][0].dist = []float32{1, 0, 0} }},
		{"missing category forest", func(m *rawModel) { m.perCategory = m.perCategory[:2] }},
		{"wrong class count", func(m *rawModel) {
			m.category = rawForest{classes: []string{"a", "b"}, trees: [][]rawNode{{{feature: -1, dist: []float32{1, 0}}}}}
		}},
	} {
		m := tinyModel()
		tc.mutate(&m)
		if _, err := fingerprint.Load(bytes.NewReader(m.file(t))); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
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
// panic, and a classifier it accepts must classify: per-row PredictVector
// and PredictBatch agree on every probe vector, and its saved file loads.
func FuzzClassifierSections(f *testing.F) {
	valid := tinyModel().sections()
	model := valid[fingerprint.SectionModel]
	f.Add(model)
	f.Add(model[:len(model)/2])
	swapped := tinyModel()
	swapped.category.trees[0][0].left, swapped.category.trees[0][0].right = 2, 1
	f.Add(swapped.sections()[fingerprint.SectionModel])

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
		batch := c.PredictBatch(probes)
		for i, x := range probes {
			if app, _ := c.PredictVector(x); app != batch[i] {
				t.Fatalf("probe %d: PredictVector %s, PredictBatch %s", i, app, batch[i])
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
