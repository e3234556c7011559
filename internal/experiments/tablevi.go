package experiments

import (
	"fmt"
	"math"
	"strings"

	"ltefp/internal/appmodel"
	"ltefp/internal/attack/correlation"
	"ltefp/internal/lte/operator"
	"ltefp/internal/ml/metrics"
	"ltefp/internal/sniffer"
)

// correlationSettings returns the settings in the paper's Table VI row
// order: Lab, AT&T, T-Mobile, Verizon.
func correlationSettings() []operator.Profile {
	return []operator.Profile{operator.Lab(), operator.ATT(), operator.TMobile(), operator.Verizon()}
}

// correlationApps returns the six messaging and VoIP apps in the paper's
// column order.
func correlationApps() []appmodel.App {
	return append(appmodel.ByCategory(appmodel.Messaging), appmodel.ByCategory(appmodel.VoIP)...)
}

// SimilarityStat is one Table VI cell.
type SimilarityStat struct {
	Mean   float64
	StdDev float64
}

// TableVIResult reproduces Table VI: DTW similarity scores D(T_w, T_a) of
// communicating pairs' traffic traces, per app and setting.
type TableVIResult struct {
	Settings []string
	Apps     []string
	// Cells is indexed [setting][app].
	Cells map[string]map[string]SimilarityStat
}

// TableVIIResult reproduces Table VII: precision and recall of the
// logistic-regression contact classifier, per app and setting.
type TableVIIResult struct {
	Settings []string
	Apps     []string
	// Cells is indexed [setting][app].
	Cells map[string]map[string]metrics.BinaryCounts
}

// TableVIandVII runs the correlation-attack evaluation once and derives
// both tables from it: Table VI from the communicating pairs' similarity
// scores, Table VII from a per-setting logistic regression trained on the
// earlier pairs and tested on the later ones.
func TableVIandVII(scale Scale, seed uint64) (*TableVIResult, *TableVIIResult, error) {
	apps := correlationApps()
	vi := &TableVIResult{Cells: make(map[string]map[string]SimilarityStat)}
	vii := &TableVIIResult{Cells: make(map[string]map[string]metrics.BinaryCounts)}
	for _, a := range apps {
		vi.Apps = append(vi.Apps, a.Name)
		vii.Apps = append(vii.Apps, a.Name)
	}
	n := scale.PairsPerSetting
	trainN := n - (n+2)/3 // hold out roughly a third of pairs per label

	// Every (setting, app, pair) capture is one task on the experiment
	// pool. evidence[si][ai] holds the app's 2n pairs in the setting:
	// [0:n) communicating, [n:2n) not.
	settings := correlationSettings()
	evidence := make([][][]correlation.Evidence, len(settings))
	for si := range evidence {
		evidence[si] = make([][]correlation.Evidence, len(apps))
		for ai := range apps {
			evidence[si][ai] = make([]correlation.Evidence, 2*n)
		}
	}
	perSetting := len(apps) * 2 * n
	err := forEach(len(settings)*perSetting, func(k int) error {
		si, ai, i := k/perSetting, k%perSetting/(2*n), k%(2*n)
		prof, app := settings[si], apps[ai]
		ev, err := correlation.CollectPairAt(correlation.PairSpec{
			Profile:          prof,
			App:              app,
			Duration:         scale.PairDur,
			Seed:             seed + uint64(si+1)*15485863 + uint64(ai+1)*32452843,
			Sniffer:          sniffer.Config{CorruptProb: sniffer.BaselineCorruption},
			ApplyProfileLoss: true,
		}, n, i)
		if err != nil {
			return fmt.Errorf("experiments: table VI/VII %s/%s: %w", prof.Name, app.Name, err)
		}
		evidence[si][ai][i] = ev
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	for si, prof := range settings {
		vi.Settings = append(vi.Settings, prof.Name)
		vii.Settings = append(vii.Settings, prof.Name)
		vi.Cells[prof.Name] = make(map[string]SimilarityStat)
		vii.Cells[prof.Name] = make(map[string]metrics.BinaryCounts)
		for ai, app := range apps {
			vi.Cells[prof.Name][app.Name] = similarityStat(evidence[si][ai][:n])
		}

		// Table VII: one contact model per setting, trained on the first
		// trainN pairs of each label across all apps, tested on the rest.
		var train []correlation.Evidence
		for ai := range apps {
			ev := evidence[si][ai]
			train = append(train, ev[:trainN]...)
			train = append(train, ev[n:n+trainN]...)
		}
		model, err := correlation.TrainModel(train, seed)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: table VII %s: %w", prof.Name, err)
		}
		for ai, app := range apps {
			ev := evidence[si][ai]
			var bc metrics.BinaryCounts
			for _, e := range append(append([]correlation.Evidence{}, ev[trainN:n]...), ev[n+trainN:]...) {
				bc.Add(e.Communicating, model.Predict(e))
			}
			vii.Cells[prof.Name][app.Name] = bc
		}
	}
	return vi, vii, nil
}

func similarityStat(ev []correlation.Evidence) SimilarityStat {
	if len(ev) == 0 {
		return SimilarityStat{}
	}
	var sum float64
	for _, e := range ev {
		sum += e.Similarity
	}
	mean := sum / float64(len(ev))
	var variance float64
	for _, e := range ev {
		d := e.Similarity - mean
		variance += d * d
	}
	return SimilarityStat{Mean: mean, StdDev: math.Sqrt(variance / float64(len(ev)))}
}

// String renders Table VI in the paper's layout.
func (r *TableVIResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table VI: DTW similarity D(T_w, T_a) of communicating pairs (mean / std-dev)\n")
	fmt.Fprintf(&b, "%-10s", "")
	for _, app := range r.Apps {
		fmt.Fprintf(&b, " | %-15s", app)
	}
	fmt.Fprintln(&b)
	for _, s := range r.Settings {
		fmt.Fprintf(&b, "%-10s", s)
		for _, app := range r.Apps {
			c := r.Cells[s][app]
			fmt.Fprintf(&b, " | %6.3f / %5.3f", c.Mean, c.StdDev)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// String renders Table VII in the paper's layout.
func (r *TableVIIResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table VII: contact-detection precision / recall (logistic regression)\n")
	fmt.Fprintf(&b, "%-10s", "")
	for _, app := range r.Apps {
		fmt.Fprintf(&b, " | %-15s", app)
	}
	fmt.Fprintln(&b)
	for _, s := range r.Settings {
		fmt.Fprintf(&b, "%-10s", s)
		for _, app := range r.Apps {
			c := r.Cells[s][app]
			fmt.Fprintf(&b, " | %6.3f / %5.3f", c.Precision(), c.Recall())
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
