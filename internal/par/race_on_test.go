//go:build race

package par_test

// raceEnabled reports whether the race detector instruments this binary.
// Allocation-count guards skip under it: the instrumentation allocates on
// its own schedule, so AllocsPerRun deltas are not meaningful there.
const raceEnabled = true
