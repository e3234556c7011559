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

// Figure9Point is one noise level of the sweep.
type Figure9Point struct {
	// BackgroundApps is how many noise apps ran beside the foreground app.
	BackgroundApps int
	// Instances is the noisy test-window count this level produced (the
	// paper's x-axis, which grows with background traffic volume).
	Instances int
	// F1 is the YouTube F-score under this noise level.
	F1 float64
}

// Figure9Result reproduces Fig. 9: impact of noise traffic. The paper
// trains on a single clean app (YouTube, T-Mobile) and tests against
// traces recorded while 5–10 background apps run on the same UE,
// observing a 3–13% F-score drop per added noise increment and effective
// failure once noise grows past the 0.6 floor.
type Figure9Result struct {
	Points []Figure9Point
}

// Figure9 sweeps the number of background apps on the victim UE.
func Figure9(scale Scale, seed uint64) (*Figure9Result, error) {
	prof := operator.TMobile()
	cfg := sniffer.Config{CorruptProb: sniffer.BaselineCorruption, DownlinkOnly: true}
	data, err := collectSetting(prof, scale, 1, seed+9973, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: figure 9 training: %w", err)
	}
	clf, err := buildAllDataClassifier(data, seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: figure 9 training: %w", err)
	}

	names := appmodel.Names()
	idx := make(map[string]int, len(names))
	for i, n := range names {
		idx[n] = i
	}
	youtube, err := appmodel.ByName("YouTube")
	if err != nil {
		return nil, err
	}
	// Clean counter-traffic (the other eight apps' held-out windows) keeps
	// precision meaningful under noise.
	counter := make(map[string][][]float64)
	for _, d := range data {
		if d.app.Name == youtube.Name {
			continue
		}
		_, held := d.trainTest()
		counter[d.app.Name] = held
	}

	levels := []int{0, 2, 4, 6, 8, 10}
	specs := make([]fingerprint.CollectSpec, len(levels))
	for li, bg := range levels {
		specs[li] = fingerprint.CollectSpec{
			Profile:          prof,
			App:              youtube,
			Sessions:         scale.StreamSessions + 2,
			SessionDur:       scale.StreamDur,
			Seed:             seed + uint64(bg+1)*104651,
			Sniffer:          cfg,
			ApplyProfileLoss: true,
			BackgroundApps:   bg,
			Population:       scale.Population,
			Metrics:          pipelineScope(),
		}
	}
	windows, err := collectSessions("figure 9", specs, defaultWindows)
	if err != nil {
		return nil, err
	}
	points := make([]Figure9Point, len(levels))
	err = forEach(len(levels), func(li int) error {
		noisy := slices.Concat(windows[li]...)
		conf := metrics.NewConfusion(names)
		for _, pred := range clf.PredictBatch(noisy) {
			conf.Add(idx[youtube.Name], idx[pred])
		}
		for app, vecs := range counter {
			for _, pred := range clf.PredictBatch(vecs) {
				conf.Add(idx[app], idx[pred])
			}
		}
		points[li] = Figure9Point{
			BackgroundApps: levels[li],
			Instances:      len(noisy),
			F1:             conf.F1(idx[youtube.Name]),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Figure9Result{Points: points}, nil
}

// String renders the series with an ASCII trend.
func (r *Figure9Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: impact of noise traffic (T-Mobile, YouTube foreground)\n")
	fmt.Fprintf(&b, "%-8s %-10s %-8s\n", "bg apps", "instances", "F-score")
	for _, p := range r.Points {
		bar := strings.Repeat("#", int(p.F1*40))
		fmt.Fprintf(&b, "%-8d %-10d %7.3f  %s\n", p.BackgroundApps, p.Instances, p.F1, bar)
	}
	return b.String()
}
