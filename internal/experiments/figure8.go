package experiments

import (
	"fmt"
	"slices"
	"strings"

	"ltefp/internal/appmodel"
	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/lte/operator"
	"ltefp/internal/ml/metrics"
	"ltefp/internal/sniffer"
)

// Figure8Point is one day of the drift sweep.
type Figure8Point struct {
	Day int
	// F1 is the YouTube F-score of the day-1 classifier on day-Day traces.
	F1 float64
}

// Figure8Result reproduces Fig. 8: decrease of classification performance
// over time as app updates drift the traffic away from the training-day
// distribution (T-Mobile, YouTube). The paper observes the 70% usability
// threshold being crossed around day 7.
type Figure8Result struct {
	Points []Figure8Point
}

// CrossedBelow returns the first measured day whose F-score fell below the
// threshold (0 when never crossed).
func (r *Figure8Result) CrossedBelow(threshold float64) int {
	for _, p := range r.Points {
		if p.F1 < threshold {
			return p.Day
		}
	}
	return 0
}

// Figure8 trains the classifier on day-1 T-Mobile traces and tests it
// against streaming traces recorded on later days.
func Figure8(scale Scale, seed uint64) (*Figure8Result, error) {
	h, err := newDriftHorizon(scale, seed)
	if err != nil {
		return nil, err
	}
	res := &Figure8Result{}
	for di, day := range h.days {
		res.Points = append(res.Points, Figure8Point{Day: day, F1: h.youtubeF1(h.static, di)})
	}
	return res, nil
}

// driftHorizon is the Fig. 8 drift study shared by Figure8 and Retraining:
// the static attacker (trained once on day-1 traces) and the per-day
// streaming evaluation campaigns every attacker on the horizon is scored
// against.
type driftHorizon struct {
	days []int
	// static is the day-1 classifier the Fig. 8 series measures.
	static *fingerprint.Classifier
	// dayVecs holds each day's evaluation windows, indexed
	// [day][streaming app][window][feature].
	dayVecs   [][][][]float64
	streaming []appmodel.App
	names     []string
	idx       map[string]int
}

// driftSniffer is the attacker's sniffer on the drift horizon.
var driftSniffer = sniffer.Config{CorruptProb: snifferCorruption, DownlinkOnly: true}

// newDriftHorizon trains the static attacker and collects every day's
// evaluation campaigns, one worker-pool task per session.
func newDriftHorizon(scale Scale, seed uint64) (*driftHorizon, error) {
	static, err := driftTrain(scale, seed, 1, 7907)
	if err != nil {
		return nil, fmt.Errorf("experiments: drift training: %w", err)
	}
	h := &driftHorizon{
		static:    static,
		streaming: appmodel.ByCategory(appmodel.Streaming),
		names:     appmodel.Names(),
	}
	h.idx = make(map[string]int, len(h.names))
	for i, n := range h.names {
		h.idx[n] = i
	}
	step := scale.Fig8Step
	if step < 1 {
		step = 1
	}
	for day := 1; day <= scale.Fig8Days; day += step {
		h.days = append(h.days, day)
	}
	sessions := scale.StreamSessions
	if sessions < 3 {
		sessions = 3
	}
	// One campaign per (day, streaming app), index di*len(streaming)+ai.
	specs := make([]fingerprint.CollectSpec, 0, len(h.days)*len(h.streaming))
	for _, day := range h.days {
		for ai, app := range h.streaming {
			specs = append(specs, fingerprint.CollectSpec{
				Profile:          operator.TMobile(),
				App:              app,
				Sessions:         sessions,
				SessionDur:       scale.StreamDur,
				Day:              day,
				Seed:             seed + uint64(day)*6701 + uint64(ai+1)*433,
				Sniffer:          driftSniffer,
				ApplyProfileLoss: true,
				Population:       scale.Population,
				Metrics:          pipelineScope(),
			})
		}
	}
	windows, err := collectSessions("drift horizon", specs, defaultWindows)
	if err != nil {
		return nil, err
	}
	h.dayVecs = make([][][][]float64, len(h.days))
	for di := range h.days {
		h.dayVecs[di] = make([][][]float64, len(h.streaming))
		for ai := range h.streaming {
			h.dayVecs[di][ai] = slices.Concat(windows[di*len(h.streaming)+ai]...)
		}
	}
	return h, nil
}

// driftTrain trains an attacker on the given day's T-Mobile traces. Drift
// measurement needs a classifier whose baseline is solid across fresh
// sessions, so the training campaign is doubled for the streaming apps
// under test.
func driftTrain(scale Scale, seed uint64, day int, salt uint64) (*fingerprint.Classifier, error) {
	trainScale := scale
	trainScale.StreamSessions *= 2
	data, err := collectSetting(operator.TMobile(), trainScale, day, seed+salt, driftSniffer)
	if err != nil {
		return nil, err
	}
	return buildAllDataClassifier(data, seed)
}

// youtubeF1 scores clf on day index di's evaluation campaign.
func (h *driftHorizon) youtubeF1(clf *fingerprint.Classifier, di int) float64 {
	conf := metrics.NewConfusion(h.names)
	for ai, app := range h.streaming {
		for _, pred := range clf.PredictBatch(h.dayVecs[di][ai]) {
			conf.Add(h.idx[app.Name], h.idx[pred])
		}
	}
	return conf.F1(h.idx["YouTube"])
}

// String renders the series with an ASCII trend.
func (r *Figure8Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: performance decrease over time (T-Mobile, YouTube)\n")
	fmt.Fprintf(&b, "%-5s %-8s\n", "day", "F-score")
	for _, p := range r.Points {
		bar := strings.Repeat("#", int(p.F1*40))
		fmt.Fprintf(&b, "%-5d %7.3f  %s\n", p.Day, p.F1, bar)
	}
	if d := r.CrossedBelow(0.70); d > 0 {
		fmt.Fprintf(&b, "crossed the 70%% usability threshold at day %d\n", d)
	} else {
		fmt.Fprintf(&b, "stayed above the 70%% usability threshold\n")
	}
	return b.String()
}
