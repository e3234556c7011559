package fingerprint

import (
	"fmt"
	"io"
	"sort"

	"ltefp/internal/appmodel"
	"ltefp/internal/features"
	"ltefp/internal/ml/forest"
	"ltefp/internal/snapshot"
)

// Section names of a persisted classifier inside a snapshot container.
// The daemon embeds these alongside the stream checkpoint sections in one
// checkpoint file; Save/Load wrap them in a standalone container for the
// ltetrain/lteattack model-file handoff.
const (
	SectionMeta  = "fingerprint.meta"
	SectionModel = "fingerprint.model"
)

// Save serialises the classifier as a standalone snapshot container. The
// format is versioned, length-prefixed, and CRC-guarded: a model file
// from an incompatible build (including the old gob era) is rejected with
// a typed error instead of being half-decoded.
func (c *Classifier) Save(w io.Writer) error {
	sw, err := snapshot.NewWriter(w)
	if err != nil {
		return fmt.Errorf("fingerprint: saving classifier: %w", err)
	}
	if err := c.AppendTo(sw); err != nil {
		return fmt.Errorf("fingerprint: saving classifier: %w", err)
	}
	if err := sw.Close(); err != nil {
		return fmt.Errorf("fingerprint: saving classifier: %w", err)
	}
	return nil
}

// Load deserialises a classifier written by Save. Wrong magic, an
// unsupported container version, truncation, and corruption surface as
// snapshot.ErrMagic/ErrVersion/ErrTruncated/ErrCorrupt in the error
// chain.
func Load(r io.Reader) (*Classifier, error) {
	sections, err := snapshot.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("fingerprint: loading classifier: %w", err)
	}
	c, err := FromSections(sections)
	if err != nil {
		return nil, fmt.Errorf("fingerprint: loading classifier: %w", err)
	}
	return c, nil
}

// AppendTo writes the classifier's sections into an open snapshot
// container.
func (c *Classifier) AppendTo(w *snapshot.Writer) error {
	sections := c.Sections()
	if err := w.Section(SectionMeta, sections[SectionMeta]); err != nil {
		return err
	}
	return w.Section(SectionModel, sections[SectionModel])
}

// Sections returns the payloads AppendTo writes, by section name, in the
// current layout: equal classifiers give equal bytes.
func (c *Classifier) Sections() map[string][]byte {
	meta := snapshot.NewEncoder(32)
	c.encodeMeta(meta)
	model := snapshot.NewEncoder(1 << 16)
	c.encodeModel(model)
	return map[string][]byte{SectionMeta: meta.Bytes(), SectionModel: model.Bytes()}
}

// FromSections rebuilds a classifier from a decoded container's sections,
// for callers (the daemon) that embed the model inside a larger file. It
// reads forests in either layout (see forest.DecodeCompat), so model
// files and checkpoints written before the v2 layout still load.
func FromSections(sections map[string][]byte) (*Classifier, error) {
	metaRaw, ok := sections[SectionMeta]
	if !ok {
		return nil, fmt.Errorf("missing section %q", SectionMeta)
	}
	modelRaw, ok := sections[SectionModel]
	if !ok {
		return nil, fmt.Errorf("missing section %q", SectionModel)
	}
	c := &Classifier{}
	md := snapshot.NewDecoder(metaRaw)
	if err := c.decodeMeta(md); err != nil {
		return nil, err
	}
	if err := md.Finish(); err != nil {
		return nil, fmt.Errorf("classifier meta: %w", err)
	}
	d := snapshot.NewDecoder(modelRaw)
	if err := c.decodeModel(d, forest.DecodeCompat); err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("classifier model: %w", err)
	}
	return c, nil
}

// encodeMeta writes the window parameters: the SectionMeta payload.
func (c *Classifier) encodeMeta(e *snapshot.Encoder) {
	e.Duration(c.Window)
	e.Duration(c.Stride)
}

// decodeMeta reads what encodeMeta wrote.
func (c *Classifier) decodeMeta(d *snapshot.Decoder) error {
	c.Window = d.Duration()
	c.Stride = d.Duration()
	if err := d.Err(); err != nil {
		return fmt.Errorf("classifier meta: %w", err)
	}
	if c.Window <= 0 || c.Stride <= 0 {
		return fmt.Errorf("classifier meta: %w: invalid window %v / stride %v", snapshot.ErrCorrupt, c.Window, c.Stride)
	}
	return nil
}

// encodeModel writes the forests, the SectionModel payload: the category
// forest, then the per-category forests in ascending category order, so
// equal classifiers always produce equal bytes.
func (c *Classifier) encodeModel(e *snapshot.Encoder) {
	forest.Encode(e, c.Category)
	cats := make([]int, 0, len(c.PerCategory))
	for cat := range c.PerCategory {
		cats = append(cats, int(cat))
	}
	sort.Ints(cats)
	e.Uvarint(uint64(len(cats)))
	for _, cat := range cats {
		e.Varint(int64(cat))
		forest.Encode(e, c.PerCategory[appmodel.Category(cat)])
	}
}

// decodeModel reads what encodeModel wrote, each forest with decode
// (forest.Decode or forest.DecodeCompat), and checks the hierarchy is
// complete: a category forest over every category and, for each category,
// an app forest over its apps, all splitting on window features only. A
// classifier decodeModel accepts can classify any window vector.
func (c *Classifier) decodeModel(d *snapshot.Decoder, decode func(*snapshot.Decoder, int) (*forest.Forest, error)) error {
	cats := appmodel.Categories()
	var err error
	if c.Category, err = decode(d, features.TotalDim); err != nil {
		return fmt.Errorf("category forest: %w", err)
	}
	if c.Category == nil || len(c.Category.Classes) != len(cats) {
		return fmt.Errorf("category forest: %w: want %d classes", snapshot.ErrCorrupt, len(cats))
	}
	n := d.Count(2)
	c.PerCategory = make(map[appmodel.Category]*forest.Forest, n)
	prev := int64(-1 << 62)
	for i := 0; i < n && d.Err() == nil; i++ {
		cat := d.Varint()
		if cat <= prev {
			return fmt.Errorf("%w: per-category forests not in ascending order", snapshot.ErrCorrupt)
		}
		prev = cat
		f, err := decode(d, features.TotalDim)
		if err != nil {
			return fmt.Errorf("forest for category %d: %w", cat, err)
		}
		c.PerCategory[appmodel.Category(cat)] = f
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("classifier model: %w", err)
	}
	if len(c.PerCategory) != len(cats) {
		return fmt.Errorf("%w: %d per-category forests, want %d", snapshot.ErrCorrupt, len(c.PerCategory), len(cats))
	}
	for _, cat := range cats {
		f := c.PerCategory[cat]
		if apps := len(appmodel.ByCategory(cat)); f == nil || len(f.Classes) != apps {
			return fmt.Errorf("forest for category %d: %w: want %d classes", cat, snapshot.ErrCorrupt, apps)
		}
	}
	return nil
}
