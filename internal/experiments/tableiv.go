package experiments

import (
	"fmt"
	"strings"

	"ltefp/internal/appmodel"
	"ltefp/internal/lte/operator"
	"ltefp/internal/ml/metrics"
	"ltefp/internal/sniffer"
)

// TableIVRow is one app's downlink-only results across the three carriers.
type TableIVRow struct {
	App      string
	Category appmodel.Category
	Cells    map[string]PRF // keyed by carrier name
}

// TableIVResult reproduces Table IV: real-world (downlink-only) per-app
// classification on the three commercial carrier profiles, one classifier
// trained per carrier as the paper does.
type TableIVResult struct {
	Carriers   []string
	Rows       []TableIVRow
	Confusions map[string]*metrics.Confusion
}

// TableIV runs the real-world fingerprinting evaluation.
func TableIV(scale Scale, seed uint64) (*TableIVResult, error) {
	carriers := operator.Commercial()
	apps := appmodel.Apps()
	confs := make([]*metrics.Confusion, len(carriers))
	err := forEach(len(carriers), func(ci int) error {
		prof := carriers[ci]
		data, err := collectSetting(prof, scale, 1, seed+uint64(ci+1)*104729,
			sniffer.Config{CorruptProb: snifferCorruption, DownlinkOnly: true})
		if err != nil {
			return fmt.Errorf("experiments: table IV: %w", err)
		}
		clf, test, err := buildClassifier(data, seed, 0)
		if err != nil {
			return fmt.Errorf("experiments: table IV %s: %w", prof.Name, err)
		}
		conf, err := clf.Evaluate(test)
		if err != nil {
			return fmt.Errorf("experiments: table IV %s: %w", prof.Name, err)
		}
		confs[ci] = conf
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &TableIVResult{Confusions: make(map[string]*metrics.Confusion)}
	for _, app := range apps {
		res.Rows = append(res.Rows, TableIVRow{App: app.Name, Category: app.Category, Cells: make(map[string]PRF)})
	}
	for ci, prof := range carriers {
		res.Carriers = append(res.Carriers, prof.Name)
		res.Confusions[prof.Name] = confs[ci]
		for i := range apps {
			res.Rows[i].Cells[prof.Name] = prfFor(confs[ci], i)
		}
	}
	return res, nil
}

// String renders the table in the paper's layout.
func (r *TableIVResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table IV: real-world mobile app classification (downlink only, Random Forest)\n")
	fmt.Fprintf(&b, "%-11s %-14s", "Category", "App")
	for _, c := range r.Carriers {
		fmt.Fprintf(&b, " |%9s F1  Prec   Rec", c)
	}
	fmt.Fprintln(&b)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-11s %-14s", row.Category, row.App)
		for _, c := range r.Carriers {
			cell := row.Cells[c]
			fmt.Fprintf(&b, " |    %6.3f %5.3f %5.3f", cell.F1, cell.Precision, cell.Recall)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
