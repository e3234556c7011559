package dtw

// Distance returns the unconstrained DTW distance between two series, the
// reference the banded and early-abandoning distances are checked against.
func Distance(a, b []float64) float64 {
	return NewAligner().DistanceBand(a, b, -1)
}
