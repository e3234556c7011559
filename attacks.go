package ltefp

import (
	"fmt"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/attack/correlation"
	"ltefp/internal/attack/history"
	"ltefp/internal/lte/operator"
	"ltefp/internal/ml/forest"
	"ltefp/internal/sniffer"
)

// forestCfg is the paper's Random Forest configuration.
func forestCfg(seed uint64) forest.Config {
	return forest.Config{Trees: 100, Seed: seed}
}

// Visit is one entry of a victim's itinerary for the history attack.
type Visit struct {
	// Zone is the cell zone the victim is in (1 → "Zone A'", ...).
	Zone int
	// Day is the simulated day (training data is day 1).
	Day int
	// Start is the session start within the day.
	Start time.Duration
	// Duration is how long the victim uses the app there.
	Duration time.Duration
	// App is the app in use (ground truth for scoring).
	App string
}

// HistoryOptions configures Attack II.
type HistoryOptions struct {
	// Network is a name from Networks().
	Network string
	// Zones lists the zones to instrument with sniffers.
	Zones []int
	// Itinerary is the victim's ground-truth movement and app usage.
	Itinerary []Visit
	// Seed namespaces the run.
	Seed uint64
}

// HistoryFinding is the attacker's reconstruction of one visit.
type HistoryFinding struct {
	Zone       int
	Day        int
	Start      time.Duration
	Duration   time.Duration
	TrueApp    string
	Predicted  string
	Confidence float64
	Correct    bool
	// Stable reports whether Confidence cleared the paper's 70% gate.
	Stable bool
}

// HistoryReport is a completed history attack.
type HistoryReport struct {
	Findings []HistoryFinding
	// Successes counts correctly identified visits.
	Successes int
}

// SuccessRate is the fraction of visits whose app was identified.
func (r *HistoryReport) SuccessRate() float64 {
	if len(r.Findings) == 0 {
		return 0
	}
	return float64(r.Successes) / float64(len(r.Findings))
}

// HistoryAttack runs Attack II with this fingerprinter: per-zone sniffers
// capture the victim's roaming, identity mapping stitches the RNTIs
// together, and every visit's trace segment is classified.
func (f *Fingerprinter) HistoryAttack(opts HistoryOptions) (*HistoryReport, error) {
	if opts.Network == "" {
		opts.Network = "Lab"
	}
	prof, err := operator.ByName(opts.Network)
	if err != nil {
		return nil, fmt.Errorf("ltefp: %w", err)
	}
	sessions := make([]history.ZoneSession, len(opts.Itinerary))
	for i, v := range opts.Itinerary {
		app, err := appmodel.ByName(v.App)
		if err != nil {
			return nil, fmt.Errorf("ltefp: itinerary entry %d: %w", i, err)
		}
		sessions[i] = history.ZoneSession{
			Zone: v.Zone, Day: v.Day, Start: v.Start, Duration: v.Duration, App: app,
		}
	}
	res, err := history.Run(f.clf, history.Config{
		Profile:          prof,
		Zones:            opts.Zones,
		Sessions:         sessions,
		Seed:             opts.Seed,
		Sniffer:          sniffer.Config{CorruptProb: sniffer.BaselineCorruption},
		ApplyProfileLoss: true,
	})
	if err != nil {
		return nil, fmt.Errorf("ltefp: %w", err)
	}
	report := &HistoryReport{Successes: res.Successes}
	for _, a := range res.Attempts {
		report.Findings = append(report.Findings, HistoryFinding{
			Zone:       a.Zone,
			Day:        a.Day,
			Start:      a.Start,
			Duration:   a.Duration,
			TrueApp:    a.TrueApp,
			Predicted:  a.Predicted,
			Confidence: a.Confidence,
			Correct:    a.Correct,
			Stable:     a.Stable,
		})
	}
	return report, nil
}

// ContactEvidence is the per-pair similarity evidence of Attack III.
type ContactEvidence struct {
	// Similarity is the DTW similarity of the two users' frame-rate
	// series (the paper's D(T_w, T_a), Table VI).
	Similarity float64
	// ByteSimilarity is the DTW similarity of the byte-rate series.
	ByteSimilarity float64
	// CrossUD is the peak cross-correlation between one side's uplink
	// and the other's downlink.
	CrossUD float64
	// VolumeRatio is min/max of the two users' traffic volumes.
	VolumeRatio float64
	// Communicating is the ground-truth label (when known).
	Communicating bool
}

// Correlate computes contact evidence for two users' records over the
// common span [start, end), using the paper's default 1 s window. It
// rejects an empty or inverted span: evidence over zero observation time
// is not "low similarity", and silently scoring it used to bias the
// contact detector toward "independent".
func Correlate(a, b []Record, start, end time.Duration) (ContactEvidence, error) {
	if end <= start {
		return ContactEvidence{}, fmt.Errorf("ltefp: correlation span [%v, %v) is empty", start, end)
	}
	e := correlation.PairEvidence(toTrace(a), toTrace(b), correlation.DefaultBin, start, end)
	return fromEvidence(e), nil
}

// CollectContactPairs simulates n communicating conversations and n
// independent same-app sessions over the named app and network, returning
// labelled evidence (communicating pairs first).
func CollectContactPairs(network, app string, n int, dur time.Duration, seed uint64) ([]ContactEvidence, error) {
	prof, a, err := resolve(network, app)
	if err != nil {
		return nil, err
	}
	ev, err := correlation.CollectPairs(correlation.PairSpec{
		Profile:          prof,
		App:              a,
		Duration:         dur,
		Seed:             seed,
		Sniffer:          sniffer.Config{CorruptProb: sniffer.BaselineCorruption},
		ApplyProfileLoss: true,
	}, n)
	if err != nil {
		return nil, fmt.Errorf("ltefp: %w", err)
	}
	out := make([]ContactEvidence, len(ev))
	for i, e := range ev {
		out[i] = fromEvidence(e)
	}
	return out, nil
}

// SweepUser is one observed user in a many-user contact sweep: an
// attacker-chosen identifier and the user's captured records.
type SweepUser struct {
	ID      string
	Records []Record
}

// ContactSweepOptions configures ContactSweep.
type ContactSweepOptions struct {
	// Bin is the similarity window T_w (0 = the paper's 1 s default).
	Bin time.Duration
	// Start and End bound the common observation span [Start, End).
	Start, End time.Duration
	// MinSimilarity drops pairs whose frame-rate DTW similarity falls below
	// it — and powers the exact lower-bound cascade that skips most full
	// DTW computations. 0 scores every pair in full.
	MinSimilarity float64
	// TopK caps reported contacts per user (0 = unlimited).
	TopK int
	// Workers is the parallel shard count (0 = GOMAXPROCS).
	Workers int
	// Detector optionally scores each surviving pair.
	Detector *ContactDetector
}

// ContactFinding is one surviving pair of a contact sweep.
type ContactFinding struct {
	// A and B index the users slice; AID and BID echo their IDs.
	A, B     int
	AID, BID string
	// Evidence is byte-identical to the pairwise Correlate result.
	Evidence ContactEvidence
	// Score and Detected are the Detector's outputs (zero without one).
	Score    float64
	Detected bool
}

// ContactSweep runs Attack III at population scale: all-pairs (optionally
// top-K-per-user) contact discovery over every observed user. Each user's
// comparison series are built once, pairs are sharded across Workers, and
// an exact lower-bound cascade (LB_Kim → LB_Keogh → early-abandoning DTW)
// prunes pairs that provably score below MinSimilarity — reported evidence
// is byte-identical to calling Correlate on each pair individually.
func ContactSweep(users []SweepUser, opts ContactSweepOptions) ([]ContactFinding, error) {
	if opts.End <= opts.Start {
		return nil, fmt.Errorf("ltefp: contact sweep span [%v, %v) is empty", opts.Start, opts.End)
	}
	in := make([]correlation.UserTrace, len(users))
	for i, u := range users {
		in[i] = correlation.UserTrace{ID: u.ID, Trace: toTrace(u.Records)}
	}
	cfg := correlation.SweepConfig{
		Bin:           opts.Bin,
		Start:         opts.Start,
		End:           opts.End,
		MinSimilarity: opts.MinSimilarity,
		TopK:          opts.TopK,
		Workers:       opts.Workers,
	}
	if opts.Detector != nil {
		cfg.Model = opts.Detector.m
	}
	contacts, err := correlation.Sweep(in, cfg)
	if err != nil {
		return nil, fmt.Errorf("ltefp: %w", err)
	}
	out := make([]ContactFinding, len(contacts))
	for i, c := range contacts {
		out[i] = ContactFinding{
			A: c.A, B: c.B,
			AID: users[c.A].ID, BID: users[c.B].ID,
			Evidence: fromEvidence(c.Evidence),
			Score:    c.Score,
			Detected: c.Detected,
		}
	}
	return out, nil
}

// ContactDetector decides contact versus coincidence from evidence
// (logistic regression, the paper's Table VII model).
type ContactDetector struct {
	m *correlation.Model
}

// TrainContactDetector fits the detector on labelled evidence.
func TrainContactDetector(samples []ContactEvidence, seed uint64) (*ContactDetector, error) {
	in := make([]correlation.Evidence, len(samples))
	for i, s := range samples {
		in[i] = toEvidence(s)
	}
	m, err := correlation.TrainModel(in, seed)
	if err != nil {
		return nil, fmt.Errorf("ltefp: %w", err)
	}
	return &ContactDetector{m: m}, nil
}

// Detect reports whether the evidence indicates the two users were in
// contact.
func (d *ContactDetector) Detect(e ContactEvidence) bool {
	return d.m.Predict(toEvidence(e))
}

// Score returns the detector's contact probability.
func (d *ContactDetector) Score(e ContactEvidence) float64 {
	return d.m.Score(toEvidence(e))
}

func fromEvidence(e correlation.Evidence) ContactEvidence {
	return ContactEvidence{
		Similarity:     e.Similarity,
		ByteSimilarity: e.ByteSimilarity,
		CrossUD:        e.CrossUD,
		VolumeRatio:    e.VolumeRatio,
		Communicating:  e.Communicating,
	}
}

func toEvidence(e ContactEvidence) correlation.Evidence {
	return correlation.Evidence{
		Similarity:     e.Similarity,
		ByteSimilarity: e.ByteSimilarity,
		CrossUD:        e.CrossUD,
		VolumeRatio:    e.VolumeRatio,
		Communicating:  e.Communicating,
	}
}
