package experiments

import (
	"fmt"
	"strings"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/lte/operator"
	"ltefp/internal/sniffer"
	"ltefp/internal/trace"
)

// WindowSweepPoint is one candidate window size's outcome.
type WindowSweepPoint struct {
	Window time.Duration
	// WeightedF1 is the window-classification score at this size.
	WeightedF1 float64
	// WindowsPerMinute is the evidence density: smaller windows yield more
	// (but weaker) classification opportunities.
	WindowsPerMinute float64
}

// WindowSweepResult reproduces the paper's window-size selection study
// (§VI: "We tested for deriving the optimal window size ... We set the
// time window as 100 ms empirically"): the same captures are re-windowed
// at several widths and the classifier re-trained at each.
type WindowSweepResult struct {
	Points []WindowSweepPoint
}

// Best returns the window size with the highest F1.
func (r *WindowSweepResult) Best() WindowSweepPoint {
	best := r.Points[0]
	for _, p := range r.Points {
		if p.WeightedF1 > best.WeightedF1 {
			best = p
		}
	}
	return best
}

// WindowSweep evaluates candidate window sizes on one set of T-Mobile
// captures.
func WindowSweep(scale Scale, seed uint64) (*WindowSweepResult, error) {
	prof := operator.TMobile()
	apps := appmodel.Apps()
	var totalSpan time.Duration
	specs := make([]fingerprint.CollectSpec, len(apps))
	for i, app := range apps {
		sessions, dur := scale.sessionsFor(app)
		specs[i] = fingerprint.CollectSpec{
			Profile:          prof,
			App:              app,
			Sessions:         sessions,
			SessionDur:       dur,
			Seed:             seed + 52289 + uint64(i+1)*7919,
			Sniffer:          sniffer.Config{CorruptProb: snifferCorruption, DownlinkOnly: true},
			ApplyProfileLoss: true,
			Population:       scale.Population,
			Metrics:          pipelineScope(),
		}
		totalSpan += time.Duration(sessions) * dur
	}
	traces, err := collectSessions("window sweep", specs, func(tr trace.Trace) trace.Trace { return tr })
	if err != nil {
		return nil, err
	}

	widths := []time.Duration{
		25 * time.Millisecond,
		50 * time.Millisecond,
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
	}
	points := make([]WindowSweepPoint, len(widths))
	err = forEach(len(widths), func(wi int) error {
		w := widths[wi]
		data := make([]appData, len(apps))
		windows := 0
		for i, app := range apps {
			d := appData{app: app}
			for _, tr := range traces[i] {
				vecs := fingerprint.WindowVectors(tr, w, w)
				windows += len(vecs)
				d.sessions = append(d.sessions, vecs)
			}
			data[i] = d
		}
		clf, test, err := buildClassifier(data, seed, w)
		if err != nil {
			return fmt.Errorf("experiments: window sweep %v: %w", w, err)
		}
		conf, err := clf.Evaluate(test)
		if err != nil {
			return fmt.Errorf("experiments: window sweep %v: %w", w, err)
		}
		points[wi] = WindowSweepPoint{
			Window:           w,
			WeightedF1:       conf.WeightedF1(),
			WindowsPerMinute: float64(windows) / totalSpan.Minutes(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &WindowSweepResult{Points: points}, nil
}

// String renders the sweep.
func (r *WindowSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Window-size selection (§VI; the paper picks 100 ms empirically)\n")
	fmt.Fprintf(&b, "%-10s %12s %14s\n", "window", "weighted-F1", "windows/min")
	for _, p := range r.Points {
		marker := ""
		if p.Window == r.Best().Window {
			marker = "  <- best"
		}
		fmt.Fprintf(&b, "%-10v %12.3f %14.0f%s\n", p.Window, p.WeightedF1, p.WindowsPerMinute, marker)
	}
	return b.String()
}
