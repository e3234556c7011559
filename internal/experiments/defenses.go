package experiments

import (
	"fmt"
	"strings"
	"time"

	"ltefp/internal/lte/operator"
	"ltefp/internal/sniffer"
)

// DefenseRow is one countermeasure configuration's outcome against the
// strongest attacker (one who trains on the defended network).
type DefenseRow struct {
	// Name labels the configuration.
	Name string
	// WeightedF1 is the fingerprinting classifier's window F1.
	WeightedF1 float64
	// Windows is the number of victim windows the attacker recovered,
	// reflecting how well identity tracking survived.
	Windows int
	// PaddingOverhead is the extra air-interface bytes per traffic window
	// relative to the undefended baseline — the deployment cost §VIII-B
	// warns about ("obfuscating traffic imposes high-performance overhead
	// on data transmission").
	PaddingOverhead float64
	// AttributionRatio is the share of the baseline's victim windows the
	// attacker could still attribute — what RNTI refreshing destroys.
	AttributionRatio float64
}

// DefensesResult evaluates the paper's §VIII-B countermeasures: frequent
// RNTI reassignment (breaks tracking) and layer-two traffic morphing
// (breaks the size feature), separately and combined.
type DefensesResult struct {
	Rows []DefenseRow
}

// Defenses runs the countermeasure ablation on the T-Mobile profile.
func Defenses(scale Scale, seed uint64) (*DefensesResult, error) {
	base := operator.TMobile()

	withRefresh := base
	withRefresh.RNTIRefreshEvery = 2 * time.Second

	withMorph := base
	withMorph.PadBuckets = true

	withBoth := withRefresh
	withBoth.PadBuckets = true

	configs := []struct {
		name string
		prof operator.Profile
	}{
		{"no defense", base},
		{"RNTI refresh (2 s)", withRefresh},
		{"traffic morphing", withMorph},
		{"refresh + morphing", withBoth},
	}

	// Configurations run in parallel; normalisation against the row-0
	// baseline happens serially afterwards.
	type cellResult struct {
		f1        float64
		windows   int
		perWindow float64
	}
	cellResults := make([]cellResult, len(configs))
	err := forEach(len(configs), func(i int) error {
		cfg := configs[i]
		// The same seed across configurations keeps the victims' traffic
		// programs identical, so the rows differ only by the defense.
		data, err := collectSetting(cfg.prof, scale, 1, seed+27644437,
			sniffer.Config{CorruptProb: snifferCorruption, DownlinkOnly: true})
		if err != nil {
			return fmt.Errorf("experiments: defenses (%s): %w", cfg.name, err)
		}
		clf, test, err := buildClassifier(data, seed, 0)
		if err != nil {
			return fmt.Errorf("experiments: defenses (%s): %w", cfg.name, err)
		}
		conf, err := clf.Evaluate(test)
		if err != nil {
			return fmt.Errorf("experiments: defenses (%s): %w", cfg.name, err)
		}
		windows := 0
		var bytes float64
		for _, d := range data {
			for _, sess := range d.sessions {
				windows += len(sess)
				for _, v := range sess {
					bytes += v[3] // total_bytes feature
				}
			}
		}
		perWindow := 0.0
		if windows > 0 {
			perWindow = bytes / float64(windows)
		}
		cellResults[i] = cellResult{f1: conf.WeightedF1(), windows: windows, perWindow: perWindow}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &DefensesResult{}
	baselineBytes := cellResults[0].perWindow
	baselineWindows := cellResults[0].windows
	for i, cfg := range configs {
		c := cellResults[i]
		overhead, attribution := 0.0, 0.0
		if baselineBytes > 0 {
			overhead = c.perWindow/baselineBytes - 1
		}
		if baselineWindows > 0 {
			attribution = float64(c.windows) / float64(baselineWindows)
		}
		res.Rows = append(res.Rows, DefenseRow{
			Name:             cfg.name,
			WeightedF1:       c.f1,
			Windows:          c.windows,
			PaddingOverhead:  overhead,
			AttributionRatio: attribution,
		})
	}
	return res, nil
}

// String renders the ablation.
func (r *DefensesResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Countermeasure ablation (§VIII-B, T-Mobile, attacker retrains per defense)\n")
	fmt.Fprintf(&b, "%-22s %12s %12s %13s %12s\n",
		"defense", "weighted-F1", "victim-wnds", "attribution", "overhead/wnd")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-22s %12.3f %12d %12.1f%% %+11.1f%%\n",
			row.Name, row.WeightedF1, row.Windows, 100*row.AttributionRatio, 100*row.PaddingOverhead)
	}
	return b.String()
}
