package experiments

import (
	"fmt"
	"strings"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/capture"
	"ltefp/internal/lte/operator"
	"ltefp/internal/sniffer"
)

// ParetoRow is one defense composition's position in the privacy/overhead
// trade space.
type ParetoRow struct {
	// Name labels the composition (its public ParseDefense spec).
	Name string
	// StaticF1 is the weighted window F1 of the static attacker — a
	// classifier trained once on the undefended network and pointed,
	// unchanged, at this composition's defended traffic.
	StaticF1 float64
	// AdaptiveF1 is the weighted window F1 of the adaptive attacker — a
	// classifier retrained from scratch on traffic captured under this
	// same composition. This is the number a defense must be judged by:
	// a real adversary retrains.
	AdaptiveF1 float64
	// Windows is the defended evaluation-set size in windows.
	Windows int
	// Overhead is the composition's deployment cost: the extra bytes the
	// cell put on the air for an identical traffic program, relative to
	// the undefended baseline (0 for the baseline itself). It is measured
	// cell-side on a fixed probe capture, so defenses that merely break
	// the attacker's attribution (fewer recovered windows) do not
	// masquerade as savings.
	Overhead float64
	// Frontier marks compositions on the Pareto frontier: no other
	// composition achieves both a lower adaptive F1 and a lower overhead.
	Frontier bool
}

// ParetoResult sweeps defense compositions and places each on the
// privacy-vs-overhead plane, against both a static and an adaptive
// attacker.
type ParetoResult struct {
	Rows []ParetoRow
}

// Pareto runs the defense arms race on the T-Mobile profile: each
// composition is priced by its measured air-interface overhead and scored
// against the static attacker (trained undefended) and the adaptive attacker
// (retrained on the defended network). The gap between the two columns is
// the protection that evaporates as soon as the adversary adapts; the
// frontier column shows which compositions survive as rational choices.
func Pareto(scale Scale, seed uint64) (*ParetoResult, error) {
	base := operator.TMobile()
	configs := []struct {
		name   string
		mutate func(p *operator.Profile)
	}{
		// Names follow the public ParseDefense token syntax so a row can be
		// replayed verbatim via `lteattack presence -defenses` or
		// ltefp.ParseDefense. ConcealIdentities is deliberately absent: it
		// removes the attacker's labels outright (no victim windows to
		// train or score), so it lives on no point of this plane — the
		// concealment experiment and the presence attack measure it.
		{"none", func(p *operator.Profile) {}},
		{"refresh=2s", func(p *operator.Profile) { p.RNTIRefreshEvery = 2 * time.Second }},
		{"morph", func(p *operator.Profile) { p.PadBuckets = true }},
		{"quant=256", func(p *operator.Profile) { p.GrantQuantum = 256 }},
		{"dummy=0.05:1200", func(p *operator.Profile) {
			p.DummyBurstProb = 0.05
			p.DummyBurstMaxBytes = 1200
		}},
		{"cr=20ms:400", func(p *operator.Profile) {
			p.ConstantRatePeriodTTI = 20
			p.ConstantRateBytes = 400
		}},
		{"smartpaging", func(p *operator.Profile) { p.PagingCycleTTI = 128 }},
		{"all-shaping", func(p *operator.Profile) {
			p.RNTIRefreshEvery = 2 * time.Second
			p.PadBuckets = true
			p.GrantQuantum = 256
			p.DummyBurstProb = 0.05
			p.DummyBurstMaxBytes = 1200
			p.ConstantRatePeriodTTI = 20
			p.ConstantRateBytes = 400
			p.PagingCycleTTI = 128
		}},
	}

	type cell struct {
		adaptive *fingerprint.Classifier
		test     map[string][][]float64
		f1       float64
		windows  int
		airBytes int64
	}
	cells := make([]cell, len(configs))
	err := forEach(len(configs), func(i int) error {
		prof := base
		configs[i].mutate(&prof)
		// The same seed across compositions keeps the victims' traffic
		// programs identical, so rows differ only by the defense.
		data, err := collectSetting(prof, scale, 1, seed+15485863,
			sniffer.Config{CorruptProb: snifferCorruption, DownlinkOnly: true})
		if err != nil {
			return fmt.Errorf("experiments: pareto (%s): %w", configs[i].name, err)
		}
		clf, test, err := buildClassifier(data, seed, 0)
		if err != nil {
			return fmt.Errorf("experiments: pareto (%s): %w", configs[i].name, err)
		}
		conf, err := clf.Evaluate(test)
		if err != nil {
			return fmt.Errorf("experiments: pareto (%s): %w", configs[i].name, err)
		}
		windows := 0
		for _, d := range data {
			for _, sess := range d.sessions {
				windows += len(sess)
			}
		}
		air, err := measureAirBytes(prof, scale, seed)
		if err != nil {
			return fmt.Errorf("experiments: pareto (%s): %w", configs[i].name, err)
		}
		cells[i] = cell{
			adaptive: clf, test: test,
			f1: conf.WeightedF1(), windows: windows, airBytes: air,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The static attacker is composition 0's classifier, frozen; it is
	// evaluated on every composition's defended held-out windows.
	static := cells[0].adaptive
	res := &ParetoResult{}
	baselineAir := cells[0].airBytes
	for i, cfg := range configs {
		conf, err := static.Evaluate(cells[i].test)
		if err != nil {
			return nil, fmt.Errorf("experiments: pareto (%s): %w", cfg.name, err)
		}
		overhead := 0.0
		if baselineAir > 0 {
			overhead = float64(cells[i].airBytes)/float64(baselineAir) - 1
		}
		res.Rows = append(res.Rows, ParetoRow{
			Name:       cfg.name,
			StaticF1:   conf.WeightedF1(),
			AdaptiveF1: cells[i].f1,
			Windows:    cells[i].windows,
			Overhead:   overhead,
		})
	}
	markFrontier(res.Rows)
	return res, nil
}

// measureAirBytes prices a composition cell-side: a fixed probe capture
// (one streaming victim over scale.StreamDur, plus the scale's background
// population) observed by a lossless sniffer, whose total transport-block
// bytes are the air-interface cost of running the identical traffic
// program under the composition.
func measureAirBytes(prof operator.Profile, scale Scale, seed uint64) (int64, error) {
	streaming := appmodel.ByCategory(appmodel.Streaming)
	res, err := capture.RunCached(capture.Scenario{
		Seed:  seed + 32452843,
		Cells: []capture.Cell{{ID: 1, Profile: prof}},
		Sessions: []capture.Session{{
			UE:       "victim",
			CellID:   1,
			App:      streaming[0],
			Start:    500 * time.Millisecond,
			Duration: scale.StreamDur,
			Day:      1,
		}},
		Population: scale.Population,
		Metrics:    pipelineScope(),
	})
	if err != nil {
		return 0, err
	}
	return int64(res.Records.TotalBytes()), nil
}

// markFrontier flags the rows no other row dominates: row j dominates row
// i when j is at least as cheap and at least as protective (lower adaptive
// F1), and strictly better on one axis.
func markFrontier(rows []ParetoRow) {
	for i := range rows {
		dominated := false
		for j := range rows {
			if i == j {
				continue
			}
			betterOrEqual := rows[j].Overhead <= rows[i].Overhead && rows[j].AdaptiveF1 <= rows[i].AdaptiveF1
			strictlyBetter := rows[j].Overhead < rows[i].Overhead || rows[j].AdaptiveF1 < rows[i].AdaptiveF1
			if betterOrEqual && strictlyBetter {
				dominated = true
				break
			}
		}
		rows[i].Frontier = !dominated
	}
}

// String renders the trade-space table.
func (r *ParetoResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Defense Pareto frontier (T-Mobile; static attacker trained undefended, adaptive attacker retrains per composition)\n")
	fmt.Fprintf(&b, "%-18s %11s %12s %12s %12s %9s\n",
		"composition", "static-F1", "adaptive-F1", "victim-wnds", "air-overhead", "frontier")
	for _, row := range r.Rows {
		mark := ""
		if row.Frontier {
			mark = "*"
		}
		fmt.Fprintf(&b, "%-18s %11.3f %12.3f %12d %+11.1f%% %9s\n",
			row.Name, row.StaticF1, row.AdaptiveF1, row.Windows, 100*row.Overhead, mark)
	}
	fmt.Fprintf(&b, "* = no composition is both cheaper and more protective against the adaptive attacker\n")
	return b.String()
}
