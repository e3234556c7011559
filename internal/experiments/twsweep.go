package experiments

import (
	"fmt"
	"strings"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/attack/correlation"
	"ltefp/internal/lte/operator"
	"ltefp/internal/ml/dtw"
	"ltefp/internal/sniffer"
	"ltefp/internal/trace"
)

// TwSweepPoint is one similarity-window candidate's outcome.
type TwSweepPoint struct {
	Tw time.Duration
	// Communicating and Independent are the mean DTW similarities of the
	// two pair populations at this T_w.
	Communicating float64
	Independent   float64
}

// Separation is the attacker's working margin at this T_w.
func (p TwSweepPoint) Separation() float64 { return p.Communicating - p.Independent }

// TwSweepResult reproduces the paper's similarity-window study (§VII-C:
// "when the time window shrinks, the similarity score increases until the
// time window reaches a certain threshold. Hence, we can determine the
// optimal value for the time window"). The same captured pairs are
// re-scored at several T_w values.
type TwSweepResult struct {
	App    string
	Points []TwSweepPoint
}

// BestTw returns the window with the largest communicating/independent
// separation — the value the attacker would adopt as the new default.
func (r *TwSweepResult) BestTw() time.Duration {
	best := r.Points[0]
	for _, p := range r.Points {
		if p.Separation() > best.Separation() {
			best = p
		}
	}
	return best.Tw
}

// pairTraces is one captured pair with its span.
type pairTraces struct {
	a, b       trace.Trace
	start, end time.Duration
}

// TwSweep captures a population of WhatsApp Call pairs on T-Mobile once
// and scores them at each candidate T_w.
func TwSweep(scale Scale, seed uint64) (*TwSweepResult, error) {
	app, err := appmodel.ByName("WhatsApp Call")
	if err != nil {
		return nil, err
	}
	prof := operator.TMobile()
	n := scale.PairsPerSetting
	collect := func(communicating bool, offset uint64) ([]pairTraces, error) {
		out := make([]pairTraces, n)
		err := forEach(n, func(i int) error {
			a, b, start, end, err := correlation.CollectPairTraces(correlation.PairSpec{
				Profile:          prof,
				App:              app,
				Communicating:    communicating,
				Duration:         scale.PairDur,
				Seed:             seed + offset + uint64(i)*7561,
				Sniffer:          sniffer.Config{CorruptProb: sniffer.BaselineCorruption},
				ApplyProfileLoss: true,
			})
			if err != nil {
				return err
			}
			out[i] = pairTraces{a: a, b: b, start: start, end: end}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	talking, err := collect(true, 1046527)
	if err != nil {
		return nil, fmt.Errorf("experiments: Tw sweep: %w", err)
	}
	apart, err := collect(false, 16769023)
	if err != nil {
		return nil, fmt.Errorf("experiments: Tw sweep: %w", err)
	}

	windows := []time.Duration{
		250 * time.Millisecond,
		500 * time.Millisecond,
		time.Second,
		2 * time.Second,
		4 * time.Second,
	}
	points := make([]TwSweepPoint, len(windows))
	err = forEach(len(windows), func(wi int) error {
		tw := windows[wi]
		// One aligner per cell: the scratch buffers are reused across the
		// whole population at this T_w.
		al := dtw.NewAligner()
		mean := func(pop []pairTraces) float64 {
			var sum float64
			for _, p := range pop {
				e := correlation.PairEvidenceWith(al, p.a, p.b, tw, p.start, p.end)
				sum += e.Similarity
			}
			return sum / float64(len(pop))
		}
		points[wi] = TwSweepPoint{
			Tw:            tw,
			Communicating: mean(talking),
			Independent:   mean(apart),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &TwSweepResult{App: app.Name, Points: points}, nil
}

// String renders the sweep.
func (r *TwSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Similarity-window T_w selection (§VII-C, %s on T-Mobile)\n", r.App)
	fmt.Fprintf(&b, "%-8s %14s %13s %11s\n", "T_w", "communicating", "independent", "separation")
	best := r.BestTw()
	for _, p := range r.Points {
		marker := ""
		if p.Tw == best {
			marker = "  <- best"
		}
		fmt.Fprintf(&b, "%-8v %14.3f %13.3f %11.3f%s\n",
			p.Tw, p.Communicating, p.Independent, p.Separation(), marker)
	}
	return b.String()
}
