//go:build !race

package par_test

// raceEnabled reports whether the race detector instruments this binary.
const raceEnabled = false
