package fingerprint

import (
	"fmt"

	"ltefp/internal/appmodel"
	"ltefp/internal/artifact"
	"ltefp/internal/capture"
	"ltefp/internal/features"
	"ltefp/internal/lte/dci"
	"ltefp/internal/ml/forest"
	"ltefp/internal/snapshot"
	"ltefp/internal/trace"
)

// This file wires the fingerprinting pipeline's two derived artifacts into
// the content-addressed store: per-capture window/feature matrices (keyed
// by the capture's scenario key plus the extraction parameters) and
// trained classifiers (keyed by the training-set content plus the forest
// configuration). Both ride the same two-tier store as raw captures, so a
// warm run skips simulation, extraction, and training alike. Metrics runs
// take the same path: counters measure computed work; served work shows on
// the store's cache counters.

// DirectionFilter restricts a session trace to one link direction before
// windowing — Table III's sniffer-coverage variants, expressed over a
// both-direction capture.
type DirectionFilter int

// The direction filters, in Table III column order.
const (
	AllDirections DirectionFilter = iota
	DownlinkOnly
	UplinkOnly
)

// Apply restricts a trace to the filter's coverage.
func (f DirectionFilter) Apply(t trace.Trace) trace.Trace {
	switch f {
	case DownlinkOnly:
		return t.FilterDirection(dci.Downlink)
	case UplinkOnly:
		return t.FilterDirection(dci.Uplink)
	default:
		return t
	}
}

// windowsCodec persists one session's window/feature matrix.
type windowsCodec struct{}

func (windowsCodec) Kind() artifact.Kind { return artifact.KindFeatures }

// Version couples the payload layout to the feature schema: either change
// invalidates persisted matrices.
func (windowsCodec) Version() uint32 { return 1<<16 | features.SchemaVersion }

func (windowsCodec) Encode(e *snapshot.Encoder, v any) error {
	m, ok := v.([][]float64)
	if !ok {
		return fmt.Errorf("fingerprint: windows codec got %T", v)
	}
	features.EncodeMatrix(e, m)
	return nil
}

func (windowsCodec) Decode(d *snapshot.Decoder) (any, error) {
	return features.DecodeMatrix(d)
}

func (windowsCodec) Size(v any) int64 {
	m, ok := v.([][]float64)
	if !ok {
		return 0
	}
	return features.MatrixSize(m)
}

// CollectWindows records one numbered session of a campaign and returns
// the victim's window vectors under the given direction filter, through
// the artifact store: a warm run decodes the matrix without touching the
// capture at all, a capture-warm run re-windows the cached capture, and a
// cold run simulates. Only a scenario without a content key bypasses the
// store.
func CollectWindows(spec CollectSpec, session int, filter DirectionFilter) ([][]float64, error) {
	spec, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	sc := scenarioFor(spec, session)
	compute := func() ([][]float64, error) {
		res, err := capture.RunCached(sc)
		if err != nil {
			return nil, err
		}
		return WindowVectors(filter.Apply(res.UserTrace("victim")), spec.Window, spec.Stride), nil
	}
	capKey, hashable := capture.ScenarioKey(sc)
	if !hashable {
		artifact.Default.CountBypass(artifact.KindFeatures)
		return compute()
	}
	h := artifact.NewHasher("ltefp-windows-v1")
	h.Bytes(capKey[:])
	h.Str("victim")
	h.U64(uint64(filter))
	h.Duration(spec.Window)
	h.Duration(spec.Stride)
	h.U64(uint64(features.SchemaVersion))
	v, err := artifact.Default.GetOrCompute(windowsCodec{}, h.Key(), func() (any, error) {
		return compute()
	})
	if err != nil {
		return nil, err
	}
	return v.([][]float64), nil
}

// classifierCodec persists a trained classifier as the model file's meta
// and model payloads written back to back, decoded by the same validating
// decoder as FromSections, so structural validation guards cache entries
// exactly as it guards model files. Entries hold the v2 forest layout
// only: version 3 marks it, so entries written in v1 are recomputed
// rather than read through the slower compatibility path.
type classifierCodec struct{}

func (classifierCodec) Kind() artifact.Kind { return artifact.KindForest }

func (classifierCodec) Version() uint32 { return 3 }

func (classifierCodec) Encode(e *snapshot.Encoder, v any) error {
	c, ok := v.(*Classifier)
	if !ok {
		return fmt.Errorf("fingerprint: classifier codec got %T", v)
	}
	c.encodeMeta(e)
	c.encodeModel(e)
	return nil
}

func (classifierCodec) Decode(d *snapshot.Decoder) (any, error) {
	c := &Classifier{}
	if err := c.decodeMeta(d); err != nil {
		return nil, err
	}
	if err := c.decodeModel(d, forest.Decode); err != nil {
		return nil, err
	}
	return c, nil
}

func (classifierCodec) Size(v any) int64 {
	c, ok := v.(*Classifier)
	if !ok {
		return 0
	}
	sz := int64(256)
	if c.Category != nil {
		sz += c.Category.Size()
	}
	for _, f := range c.PerCategory {
		if f != nil {
			sz += f.Size()
		}
	}
	return sz
}

// TrainingKey derives the content address of a training run: the full
// per-app training matrices (in registry order) plus the effective
// configuration. Training is deterministic in these inputs, so equal keys
// guarantee byte-identical classifiers.
func TrainingKey(ts *TrainingSet, cfg Config) artifact.Key {
	cfg = cfg.withDefaults()
	h := artifact.NewHasher("ltefp-forest-v1")
	h.U64(uint64(features.SchemaVersion))
	h.Duration(cfg.Window)
	h.Duration(cfg.Stride)
	// forest.Config is a flat struct of scalars; %#v serialises it fully.
	h.Str(fmt.Sprintf("%#v", cfg.Forest))
	apps := appmodel.Apps()
	h.U64(uint64(len(apps)))
	for _, app := range apps {
		h.Str(app.Name)
		vecs := ts.byApp[app.Name]
		h.U64(uint64(len(vecs)))
		for _, row := range vecs {
			h.U64(uint64(len(row)))
			for _, v := range row {
				h.F64(v)
			}
		}
	}
	return h.Key()
}

// TrainCached trains through the artifact store: a warm run decodes the
// persisted classifier (skipping forest training entirely), and the first
// cold run populates the store. Forest counters measure computed work
// (only a run that trains records rows_trained); served work shows on the
// store's cache counters.
func TrainCached(ts *TrainingSet, cfg Config) (*Classifier, error) {
	v, err := artifact.Default.GetOrCompute(classifierCodec{}, TrainingKey(ts, cfg), func() (any, error) {
		return Train(ts, cfg)
	})
	if err != nil {
		return nil, err
	}
	return v.(*Classifier), nil
}
