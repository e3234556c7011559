package ltefp

import (
	"fmt"
	"io"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/lte/operator"
	"ltefp/internal/sniffer"
)

// TrainingOptions sizes a labelled data-collection campaign across all
// nine apps on one network.
type TrainingOptions struct {
	// Network is a name from Networks() (default "Lab").
	Network string
	// SessionsPerApp is the number of traces per app (default 6; the
	// bursty messengers automatically get three times as many).
	SessionsPerApp int
	// SessionDuration is the length of each trace (default 60 s).
	SessionDuration time.Duration
	// Seed namespaces the campaign.
	Seed uint64
	// DownlinkOnly restricts collection to the downlink channel.
	DownlinkOnly bool
}

// TrainingData is a labelled corpus of window vectors, ready to train a
// Fingerprinter.
type TrainingData struct {
	set    *fingerprint.TrainingSet
	counts map[string]int
}

// Count returns the number of training windows collected for an app.
func (td *TrainingData) Count(app string) int { return td.counts[app] }

// CollectTraining records the full nine-app campaign.
func CollectTraining(opts TrainingOptions) (*TrainingData, error) {
	if opts.Network == "" {
		opts.Network = "Lab"
	}
	prof, err := operator.ByName(opts.Network)
	if err != nil {
		return nil, fmt.Errorf("ltefp: %w", err)
	}
	if opts.SessionsPerApp <= 0 {
		opts.SessionsPerApp = 6
	}
	if opts.SessionDuration <= 0 {
		opts.SessionDuration = time.Minute
	}
	td := &TrainingData{set: fingerprint.NewTrainingSet(), counts: make(map[string]int)}
	for i, app := range appmodel.Apps() {
		sessions := opts.SessionsPerApp
		if app.Category == appmodel.Messaging {
			sessions *= 3
		}
		vecs, err := fingerprint.Collect(fingerprint.CollectSpec{
			Profile:          prof,
			App:              app,
			Sessions:         sessions,
			SessionDur:       opts.SessionDuration,
			Seed:             opts.Seed + uint64(i+1)*7919,
			Sniffer:          sniffer.Config{CorruptProb: sniffer.BaselineCorruption, DownlinkOnly: opts.DownlinkOnly},
			ApplyProfileLoss: true,
		})
		if err != nil {
			return nil, fmt.Errorf("ltefp: collecting %s: %w", app.Name, err)
		}
		if err := td.set.Add(app.Name, vecs); err != nil {
			return nil, fmt.Errorf("ltefp: %w", err)
		}
		td.counts[app.Name] = len(vecs)
	}
	return td, nil
}

// Fingerprinter is the trained hierarchical classifier of Attack I: it
// first recognises an app's category, then the app within the category,
// from 100 ms windows of radio metadata.
type Fingerprinter struct {
	clf *fingerprint.Classifier
}

// TrainFingerprinter fits the two-level Random Forest hierarchy (100
// trees per forest, the paper's setting) on the collected corpus.
func TrainFingerprinter(td *TrainingData, seed uint64) (*Fingerprinter, error) {
	clf, err := fingerprint.Train(td.set, fingerprint.Config{
		Forest: forestCfg(seed),
	})
	if err != nil {
		return nil, fmt.Errorf("ltefp: %w", err)
	}
	return &Fingerprinter{clf: clf}, nil
}

// Identification is the outcome of classifying one trace.
type Identification struct {
	// App is the majority-voted application name.
	App string
	// Category is the app's class.
	Category string
	// Confidence is the fraction of windows voting for App; the paper
	// treats predictions under 0.70 as unstable.
	Confidence float64
	// Windows is the number of classified traffic windows.
	Windows int
}

// Identify classifies a victim's records by majority vote over sliding
// windows. An empty trace yields a zero Identification.
func (f *Fingerprinter) Identify(records []Record) Identification {
	p := f.clf.PredictTrace(toTrace(records))
	var category string
	if p.App != "" {
		category = p.Category.String()
	}
	return Identification{
		App:        p.App,
		Category:   category,
		Confidence: p.Confidence,
		Windows:    p.Windows,
	}
}

// Save serialises the trained model as a versioned, checksummed snapshot
// container (the model file ltetrain writes and lteattack reads).
func (f *Fingerprinter) Save(w io.Writer) error {
	if err := f.clf.Save(w); err != nil {
		return fmt.Errorf("ltefp: %w", err)
	}
	return nil
}

// LoadFingerprinter deserialises a model written by Save.
func LoadFingerprinter(r io.Reader) (*Fingerprinter, error) {
	clf, err := fingerprint.Load(r)
	if err != nil {
		return nil, fmt.Errorf("ltefp: %w", err)
	}
	return &Fingerprinter{clf: clf}, nil
}
