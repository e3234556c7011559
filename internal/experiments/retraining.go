package experiments

import (
	"fmt"
	"strings"
)

// RetrainingPoint is one day of the maintained-attacker sweep.
type RetrainingPoint struct {
	Day int
	// Static is the day-1 classifier's YouTube F-score on this day — the
	// Fig. 8 series.
	Static float64
	// Maintained is the retraining attacker's score on the same traces.
	Maintained float64
	// Retrained marks days on which the maintained attacker re-collected
	// and re-trained (its previous day's score fell below the threshold).
	Retrained bool
}

// RetrainingResult evaluates the paper's adaptive-retraining strategy
// (§VI "Retraining the classifier" and the §VII-D retraining cost term ⑩):
// an attacker who re-collects training data whenever performance falls
// below the 70% threshold holds the F-score flat, at the recurring cost
// Eq. 3 prices.
type RetrainingResult struct {
	Points []RetrainingPoint
	// Retrainings counts how many times the maintained attacker paid the
	// retraining cost over the horizon.
	Retrainings int
}

// Retraining runs the maintained attacker over the Fig. 8 drift horizon,
// side by side with Figure 8's static attacker on the same day traces.
func Retraining(scale Scale, seed uint64) (*RetrainingResult, error) {
	h, err := newDriftHorizon(scale, seed)
	if err != nil {
		return nil, err
	}
	maintained := h.static

	// The retrain decisions chain day to day, so this loop stays sequential.
	res := &RetrainingResult{}
	needRetrain := false
	for di, day := range h.days {
		retrained := false
		if needRetrain {
			// The attacker re-runs its collection campaign against the
			// current app versions — the Retrain_cost(⑩) purchase.
			fresh, err := driftTrain(scale, seed, day, 104729+uint64(day)*37)
			if err != nil {
				return nil, fmt.Errorf("experiments: retraining day %d: %w", day, err)
			}
			maintained = fresh
			res.Retrainings++
			retrained = true
			needRetrain = false
		}
		maintainedF1 := h.youtubeF1(maintained, di)
		if maintainedF1 < 0.70 {
			needRetrain = true
		}
		res.Points = append(res.Points, RetrainingPoint{
			Day:        day,
			Static:     h.youtubeF1(h.static, di),
			Maintained: maintainedF1,
			Retrained:  retrained,
		})
	}
	return res, nil
}

// String renders both attackers' trajectories.
func (r *RetrainingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Adaptive retraining (§VI / cost term ⑩; threshold 70%%, T-Mobile YouTube)\n")
	fmt.Fprintf(&b, "%-5s %10s %12s %s\n", "day", "static-F1", "maintained", "")
	for _, p := range r.Points {
		note := ""
		if p.Retrained {
			note = "  <- retrained"
		}
		fmt.Fprintf(&b, "%-5d %10.3f %12.3f%s\n", p.Day, p.Static, p.Maintained, note)
	}
	fmt.Fprintf(&b, "retrainings over the horizon: %d\n", r.Retrainings)
	return b.String()
}
