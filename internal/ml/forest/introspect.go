package forest

import "sort"

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
