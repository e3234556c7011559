// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII–§VIII): one runner per artefact, each returning a typed
// result with a text renderer that mirrors the paper's layout. The runners
// are deterministic in their seed; the bench harness (bench_test.go) and
// the lteexperiments command are thin wrappers around them.
//
// Each runner accepts a Scale that trades experiment size for runtime:
// Quick for CI-sized runs, Full for paper-sized ones. The *shape* of every
// result — who wins, by roughly what factor, where thresholds are crossed —
// is stable across scales; absolute precision improves with Full.
package experiments

import (
	"hash/fnv"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/lte/operator"
	"ltefp/internal/ml/metrics"
	"ltefp/internal/sim"
	"ltefp/internal/sniffer"
)

// Scale sizes the data-collection campaigns behind the experiments.
type Scale struct {
	// Name labels the scale in output.
	Name string

	// StreamSessions/VoipSessions/MsgSessions are traces per app; the
	// bursty messengers need more, shorter-yield sessions.
	StreamSessions int
	VoipSessions   int
	MsgSessions    int
	// StreamDur/VoipDur/MsgDur are per-trace durations.
	StreamDur time.Duration
	VoipDur   time.Duration
	MsgDur    time.Duration

	// PairsPerSetting is the communicating-pair count per app and network
	// for the correlation tables (the paper uses 10).
	PairsPerSetting int
	// PairDur is the conversation length per pair.
	PairDur time.Duration

	// Fig8Days is the drift horizon (the paper measures 20 days).
	Fig8Days int
	// Fig8Step is the day stride when sweeping the horizon.
	Fig8Step int

	// HistoryFactor scales the Table V itinerary's 5–10 minute session
	// durations (1.0 reproduces the paper's timings).
	HistoryFactor float64

	// Population attaches this many mostly-idle background UEs to every
	// capture cell (~1% concurrently active), so campaigns measure the
	// attack against metro-scale crowded cells. Zero keeps the historical
	// behaviour (profile ambient users only).
	Population int
}

// Quick returns a CI-sized scale: every experiment shape in minutes.
func Quick() Scale {
	return Scale{
		Name:            "quick",
		StreamSessions:  4,
		VoipSessions:    4,
		MsgSessions:     12,
		StreamDur:       60 * time.Second,
		VoipDur:         60 * time.Second,
		MsgDur:          120 * time.Second,
		PairsPerSetting: 6,
		PairDur:         75 * time.Second,
		Fig8Days:        13,
		Fig8Step:        3,
		HistoryFactor:   0.4,
	}
}

// Full returns the paper-sized scale.
func Full() Scale {
	return Scale{
		Name:            "full",
		StreamSessions:  8,
		VoipSessions:    8,
		MsgSessions:     24,
		StreamDur:       90 * time.Second,
		VoipDur:         90 * time.Second,
		MsgDur:          180 * time.Second,
		PairsPerSetting: 10,
		PairDur:         120 * time.Second,
		Fig8Days:        20,
		Fig8Step:        1,
		HistoryFactor:   1.0,
	}
}

// sessionsFor returns the campaign sizing for one app under a scale.
func (s Scale) sessionsFor(a appmodel.App) (sessions int, dur time.Duration) {
	switch a.Category {
	case appmodel.Streaming:
		return s.StreamSessions, s.StreamDur
	case appmodel.Messaging:
		return s.MsgSessions, s.MsgDur
	default:
		return s.VoipSessions, s.VoipDur
	}
}

// PRF is one precision/recall/F-score cell.
type PRF struct {
	Precision float64
	Recall    float64
	F1        float64
}

// prfFor extracts an app's row from a confusion matrix.
func prfFor(conf *metrics.Confusion, class int) PRF {
	return PRF{
		Precision: conf.Precision(class),
		Recall:    conf.Recall(class),
		F1:        conf.F1(class),
	}
}

// appData holds one app's windows split by session for one setting.
type appData struct {
	app      appmodel.App
	sessions [][][]float64 // [session][window][feature]
}

// trainTest splits an app's windows 80/20 following the paper's protocol
// ("Splitting of the dataset: 80% training, 20% testing" — an instance-
// level split, not a session-level one). The shuffle is deterministic per
// app so results are reproducible.
func (d appData) trainTest() (train, test [][]float64) {
	var all [][]float64
	for _, s := range d.sessions {
		all = append(all, s...)
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(d.app.Name))
	rng := sim.NewRNG(h.Sum64())
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	cut := len(all) * 4 / 5
	if cut < 1 && len(all) > 1 {
		cut = 1
	}
	return all[:cut], all[cut:]
}

// collectSetting records the full nine-app campaign for one network
// setting and sniffer configuration, as a cached dataset artifact.
func collectSetting(profile operator.Profile, scale Scale, day int, seed uint64, cfg sniffer.Config) ([]appData, error) {
	return collectDataset("collecting on "+profile.Name, profile, scale, day, seed, cfg, fingerprint.AllDirections)
}

// buildClassifier trains the hierarchical classifier on the training halves
// of a setting's data, windowed at w (0 means fingerprint.DefaultWindow),
// and returns it with the held-out test windows. Training goes through the
// artifact store, keyed on the training content and forest configuration.
func buildClassifier(data []appData, seed uint64, w time.Duration) (*fingerprint.Classifier, map[string][][]float64, error) {
	ts := fingerprint.NewTrainingSet()
	test := make(map[string][][]float64, len(data))
	for _, d := range data {
		train, held := d.trainTest()
		if err := ts.Add(d.app.Name, train); err != nil {
			return nil, nil, err
		}
		test[d.app.Name] = held
	}
	cfg := fingerprint.Config{Window: w, Stride: w, Forest: forestConfig(seed)}
	clf, err := fingerprint.TrainCached(ts, cfg)
	if err != nil {
		return nil, nil, err
	}
	return clf, test, nil
}
