package experiments

import (
	"sync/atomic"

	"ltefp/internal/artifact"
	"ltefp/internal/attack/correlation"
	"ltefp/internal/features"
	"ltefp/internal/ml/forest"
	"ltefp/internal/obs"
)

// activeRegistry is the registry the experiment runners report into. It is
// process-global because the runners are: one lteexperiments invocation
// runs one experiment at a time and resets the registry between runs.
var activeRegistry atomic.Pointer[obs.Registry]

// SetMetrics points the whole experiment pipeline at a registry: capture
// metrics land under pipeline.cellN.{sniffer,enb}.*, feature extraction
// under pipeline.features.*, forest training and inference under
// pipeline.forest.*, the correlation sweep funnel under pipeline.corr.*,
// and the worker pool under pipeline.workers.*. Passing nil disables all
// of it (the default).
func SetMetrics(r *obs.Registry) {
	activeRegistry.Store(r)
	sc := r.Scope("pipeline")
	features.SetMetrics(sc.Scope("features"))
	forest.SetMetrics(sc.Scope("forest"))
	correlation.SetMetrics(sc.Scope("corr"))
	// The artifact store reports under pipeline.cache.*. Metrics runs go
	// through the store like any other: counters measure computed work;
	// served work shows on the cache line.
	artifact.Default.SetMetrics(sc.Scope("cache"))
}

// pipelineScope returns the active pipeline scope (disabled when no
// registry is set).
func pipelineScope() obs.Scope {
	return activeRegistry.Load().Scope("pipeline")
}
