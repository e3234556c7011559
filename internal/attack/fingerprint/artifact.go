package fingerprint

import (
	"bytes"
	"fmt"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/artifact"
	"ltefp/internal/capture"
	"ltefp/internal/features"
	"ltefp/internal/lte/dci"
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

// scenarioFor builds the capture scenario behind one numbered session of a
// campaign (the same scenario collectOne runs).
func scenarioFor(spec CollectSpec, session int) capture.Scenario {
	seed := spec.Seed*0x9E3779B9 + uint64(session)*0x85EBCA77 + 1
	sess := capture.Session{
		UE:       "victim",
		CellID:   1,
		App:      spec.App,
		Start:    500 * time.Millisecond,
		Duration: spec.SessionDur,
		Day:      spec.Day,
	}
	if spec.BackgroundApps > 0 {
		sess.Arrivals = mergedArrivals(spec, seed)
	}
	return capture.Scenario{
		Seed:             seed,
		Cells:            []capture.Cell{{ID: 1, Profile: spec.Profile}},
		Sessions:         []capture.Session{sess},
		Population:       spec.Population,
		Sniffer:          spec.Sniffer,
		ApplyProfileLoss: spec.ApplyProfileLoss,
		Metrics:          spec.Metrics,
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

// classifierCodec persists a trained classifier, reusing the Save/Load
// container (persist.go) as the payload so the structural validation of
// decodeForest guards cache entries exactly as it guards model files.
type classifierCodec struct{}

func (classifierCodec) Kind() artifact.Kind { return artifact.KindForest }

func (classifierCodec) Version() uint32 { return 1 }

func (classifierCodec) Encode(e *snapshot.Encoder, v any) error {
	c, ok := v.(*Classifier)
	if !ok {
		return fmt.Errorf("fingerprint: classifier codec got %T", v)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		return err
	}
	e.Blob(buf.Bytes())
	return nil
}

func (classifierCodec) Decode(d *snapshot.Decoder) (any, error) {
	b := d.Blob()
	if err := d.Err(); err != nil {
		return nil, err
	}
	return Load(bytes.NewReader(b))
}

func (classifierCodec) Size(v any) int64 {
	c, ok := v.(*Classifier)
	if !ok {
		return 0
	}
	sz := int64(256)
	if c.Category != nil {
		for i := range c.Category.Trees {
			sz += int64(len(c.Category.Trees[i].Nodes)) * 48
		}
	}
	for _, f := range c.PerCategory {
		if f == nil {
			continue
		}
		for i := range f.Trees {
			sz += int64(len(f.Trees[i].Nodes)) * 48
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
