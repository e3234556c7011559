package experiments

import (
	"fmt"
	"strings"

	"ltefp/internal/appmodel"
	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/lte/operator"
	"ltefp/internal/ml/forest"
	"ltefp/internal/ml/metrics"
	"ltefp/internal/sniffer"
)

// forestConfig is the paper's Random Forest setting (Table VIII: 100
// trees, seed 1) namespaced by the experiment seed.
func forestConfig(seed uint64) forest.Config {
	return forest.Config{Trees: 100, Seed: seed}
}

// Variant names the sniffer-coverage variants of Table III.
type Variant string

// The three coverage variants: both directions, downlink only, uplink only.
const (
	DownUp Variant = "Down+Up"
	Down   Variant = "Down"
	Up     Variant = "Up"
)

// Variants lists the Table III variants in column order.
func Variants() []Variant { return []Variant{DownUp, Down, Up} }

// TableIIIRow is one app's results across the three variants.
type TableIIIRow struct {
	App      string
	Category appmodel.Category
	Cells    map[Variant]PRF
}

// TableIIIResult reproduces Table III: lab-setting per-app classification
// for combined, downlink-only, and uplink-only sniffer coverage.
type TableIIIResult struct {
	Rows       []TableIIIRow
	Confusions map[Variant]*metrics.Confusion
}

// TableIII runs the lab fingerprinting evaluation. One both-direction
// capture per app session feeds all three variants (a sole-downlink
// sniffer sees exactly the downlink subset of the combined capture):
// each variant is its own dataset artifact, and the capture tier below
// deduplicates the shared simulations across them. Metrics runs take the
// same path: counters measure computed work; served work shows on the
// cache: line of the metrics report.
func TableIII(scale Scale, seed uint64) (*TableIIIResult, error) {
	apps := appmodel.Apps()
	cfg := sniffer.Config{CorruptProb: snifferCorruption}
	variants := Variants()
	confs := make([]*metrics.Confusion, len(variants))
	err := forEach(len(variants), func(vi int) error {
		v := variants[vi]
		data, err := collectDataset("table III "+string(v), operator.Lab(), scale, 0, seed, cfg, variantFilter(v))
		if err != nil {
			return fmt.Errorf("experiments: table III %s: %w", v, err)
		}
		clf, test, err := buildClassifier(data, seed, 0)
		if err != nil {
			return fmt.Errorf("experiments: table III %s: %w", v, err)
		}
		conf, err := clf.Evaluate(test)
		if err != nil {
			return fmt.Errorf("experiments: table III %s: %w", v, err)
		}
		confs[vi] = conf
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &TableIIIResult{Confusions: make(map[Variant]*metrics.Confusion)}
	for _, app := range apps {
		res.Rows = append(res.Rows, TableIIIRow{App: app.Name, Category: app.Category, Cells: make(map[Variant]PRF)})
	}
	for vi, v := range variants {
		res.Confusions[v] = confs[vi]
		for i := range apps {
			res.Rows[i].Cells[v] = prfFor(confs[vi], i)
		}
	}
	return res, nil
}

// variantFilter maps a Table III variant to its direction filter.
func variantFilter(v Variant) fingerprint.DirectionFilter {
	switch v {
	case Down:
		return fingerprint.DownlinkOnly
	case Up:
		return fingerprint.UplinkOnly
	default:
		return fingerprint.AllDirections
	}
}

// String renders the table in the paper's layout.
func (r *TableIIIResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III: lab-setting mobile app classification (Random Forest)\n")
	fmt.Fprintf(&b, "%-11s %-14s", "Category", "App")
	for _, v := range Variants() {
		fmt.Fprintf(&b, " |%8s F1  Prec   Rec", v)
	}
	fmt.Fprintln(&b)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-11s %-14s", row.Category, row.App)
		for _, v := range Variants() {
			c := row.Cells[v]
			fmt.Fprintf(&b, " |   %6.3f %5.3f %5.3f", c.F1, c.Precision, c.Recall)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
