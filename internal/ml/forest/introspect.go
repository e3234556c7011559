package forest

import (
	"sort"

	"ltefp/internal/ml/dataset"
)

// FeatureImportance returns the mean decrease in node impurity
// attributable to each feature, normalised to sum to 1 (Breiman's Gini
// importance). The attacker uses this to see which side-channel — sizes,
// cadence, direction — the model actually keys on.
func (f *Forest) FeatureImportance(dim int) []float64 {
	imp := make([]float64, dim)
	// Sample counts are not stored per node, so importance is approximated
	// by counting splits per feature weighted by depth (shallower splits
	// separate more samples).
	var walk func(i int32, depth int)
	walk = func(i int32, depth int) {
		n := f.nodes[i]
		if n.right == i {
			return
		}
		if int(n.feat) < dim {
			imp[n.feat] += 1 / float64(depth+1)
		}
		walk(i+1, depth+1)
		walk(n.right, depth+1)
	}
	for _, root := range f.roots {
		walk(root, 0)
	}
	var total float64
	for _, v := range imp {
		total += v
	}
	if total > 0 {
		for i := range imp {
			imp[i] /= total
		}
	}
	return imp
}

// RankedFeature pairs a feature name with its importance.
type RankedFeature struct {
	Name       string
	Importance float64
}

// RankFeatures returns named importances, most important first.
func (f *Forest) RankFeatures(names []string) []RankedFeature {
	imp := f.FeatureImportance(len(names))
	out := make([]RankedFeature, len(names))
	for i, name := range names {
		out[i] = RankedFeature{Name: name, Importance: imp[i]}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Importance > out[j].Importance })
	return out
}

// OOBError estimates generalisation error without a held-out set: each
// row is scored only by the trees whose bootstrap sample did not contain
// it. Because per-tree bootstrap membership is reproducible from the
// training configuration, the caller passes the same dataset and config
// used for Train.
func OOBError(d *dataset.Dataset, cfg Config) (float64, error) {
	if err := d.Validate(); err != nil {
		return 0, err
	}
	f, err := Train(d, cfg)
	if err != nil {
		return 0, err
	}
	cfg = cfg.withDefaults(d.Len(), d.Dim())

	votes := make([][]float64, d.Len())
	for i := range votes {
		votes[i] = make([]float64, len(d.Classes))
	}
	inBag := make([]bool, d.Len())
	for tIdx, root := range f.roots {
		// Reconstruct this tree's bootstrap sample.
		rng := treeRNG(cfg.Seed, tIdx)
		for i := range inBag {
			inBag[i] = false
		}
		for i := 0; i < cfg.SubsampleSize; i++ {
			inBag[rng.IntN(d.Len())] = true
		}
		for row := range d.X {
			if inBag[row] {
				continue
			}
			for c, p := range f.leaf(f.descend(root, d.X[row])) {
				votes[row][c] += p
			}
		}
	}
	wrong, scored := 0, 0
	for row, v := range votes {
		best, bv, any := 0, 0.0, false
		for c, p := range v {
			if p > 0 {
				any = true
			}
			if p > bv {
				best, bv = c, p
			}
		}
		if !any {
			continue // row was in every bag (vanishingly rare)
		}
		scored++
		if best != d.Y[row] {
			wrong++
		}
	}
	if scored == 0 {
		return 0, nil
	}
	return float64(wrong) / float64(scored), nil
}
