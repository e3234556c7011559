package experiments

import (
	"fmt"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/attack/history"
	"ltefp/internal/lte/operator"
	"ltefp/internal/sniffer"
)

// TableVResult reproduces Table V: the history attack over three zones and
// three days on the T-Mobile profile, 12 attempts, with the paper
// reporting a 10/12 = 83% success rate.
type TableVResult struct {
	Attack *history.Result
}

// itineraryEntry is one ground-truth victim activity for Table V.
type itineraryEntry struct {
	zone    int
	day     int
	app     string
	minutes float64
}

// tableVItinerary mirrors the paper's Table V: 12 sessions over 3 days in
// zones A', B', C', each 5–10 minutes, covering all three categories.
// Attack days are shortly after the training day, so drift is mild.
var tableVItinerary = []itineraryEntry{
	{1, 2, "Netflix", 6},
	{2, 2, "Telegram", 5.25},
	{3, 2, "WhatsApp Call", 8},
	{1, 2, "YouTube", 10},
	{2, 2, "Facebook", 5.75},
	{1, 3, "WhatsApp Call", 6},
	{2, 3, "WhatsApp", 6},
	{3, 3, "Amazon Prime", 6},
	{1, 4, "YouTube", 9.75},
	{2, 4, "Skype", 7.25},
	{1, 4, "Facebook", 6.25},
	{1, 4, "Netflix", 6.5},
}

// TableV trains the fingerprinting classifier on day-1 T-Mobile data and
// runs the multi-zone history attack over the Table V itinerary.
func TableV(scale Scale, seed uint64) (*TableVResult, error) {
	prof := operator.TMobile()
	cfg := sniffer.Config{CorruptProb: sniffer.BaselineCorruption}

	data, err := collectSetting(prof, scale, 1, seed+31337, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: table V training: %w", err)
	}
	clf, err := buildAllDataClassifier(data, seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: table V training: %w", err)
	}

	factor := scale.HistoryFactor
	if factor <= 0 {
		factor = 1
	}
	var sessions []history.ZoneSession
	dayClock := make(map[int]time.Duration)
	for _, e := range tableVItinerary {
		app, err := appmodel.ByName(e.app)
		if err != nil {
			return nil, fmt.Errorf("experiments: table V itinerary: %w", err)
		}
		start, ok := dayClock[e.day]
		if !ok {
			start = 2 * time.Second
		}
		dur := time.Duration(e.minutes * factor * float64(time.Minute))
		sessions = append(sessions, history.ZoneSession{
			Zone:     e.zone,
			Day:      e.day,
			Start:    start,
			Duration: dur,
			App:      app,
		})
		// The victim travels between zones for a while before the next
		// session; the gap also lets the RRC connection drop, so each
		// zone entry re-establishes (and re-exposes) identity.
		dayClock[e.day] = start + dur + 45*time.Second
	}

	res, err := history.Run(clf, history.Config{
		Profile:          prof,
		Zones:            []int{1, 2, 3},
		Sessions:         sessions,
		Seed:             seed + 424243,
		Sniffer:          cfg,
		ApplyProfileLoss: true,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: table V: %w", err)
	}
	return &TableVResult{Attack: res}, nil
}

// buildAllDataClassifier trains on every collected window (no hold-out):
// the history attack's test data is the separate roaming capture.
func buildAllDataClassifier(data []appData, seed uint64) (*fingerprint.Classifier, error) {
	ts := fingerprint.NewTrainingSet()
	for _, d := range data {
		var all [][]float64
		for _, s := range d.sessions {
			all = append(all, s...)
		}
		if err := ts.Add(d.app.Name, all); err != nil {
			return nil, err
		}
	}
	return fingerprint.Train(ts, fingerprint.Config{Forest: forestConfig(seed)})
}

// String renders the attack log in the paper's Table V layout.
func (r *TableVResult) String() string {
	return "Table V: history attack (T-Mobile, 3 zones, 3 days)\n" + r.Attack.String()
}
