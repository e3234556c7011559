package fingerprint

import (
	"fmt"
	"runtime"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/capture"
	"ltefp/internal/lte/operator"
	"ltefp/internal/obs"
	"ltefp/internal/par"
	"ltefp/internal/sniffer"
	"ltefp/internal/trace"
)

// CollectSpec describes one labelled data-collection campaign: repeated
// sessions of one app on one network, captured by the attacker's sniffer
// and reduced to window vectors (the paper's steps ②–③).
type CollectSpec struct {
	// Profile is the network environment.
	Profile operator.Profile
	// App is the foreground app the victim runs.
	App appmodel.App
	// Sessions is how many independent traces to record.
	Sessions int
	// SessionDur is the length of each trace (the paper records 10-minute
	// traces; shorter sessions trade fidelity for runtime).
	SessionDur time.Duration
	// Day selects the drift-model day (≤1 = training day).
	Day int
	// Seed namespaces this campaign's randomness.
	Seed uint64
	// Sniffer configures capture fidelity; combined with ApplyProfileLoss
	// as in capture.Scenario.
	Sniffer          sniffer.Config
	ApplyProfileLoss bool
	// BackgroundApps, when positive, runs this many noise apps on the
	// victim's own UE alongside the foreground app (the Fig. 9 setting).
	BackgroundApps int
	// Population attaches this many mostly-idle background UEs to the
	// cell (~1% concurrently active), so campaigns record the victim
	// inside a metro-scale crowd of attached subscribers.
	Population int
	// Window and Stride control feature windowing (defaults as in Config).
	Window time.Duration
	Stride time.Duration
	// Metrics, when enabled, receives each session capture's per-cell
	// decode-health and scheduler metrics (see capture.Scenario.Metrics).
	Metrics obs.Scope
}

// normalize applies the spec defaults.
func (s CollectSpec) normalize() (CollectSpec, error) {
	if s.Sessions <= 0 {
		return s, fmt.Errorf("fingerprint: collect: no sessions requested")
	}
	if s.Window <= 0 {
		s.Window = DefaultWindow
	}
	if s.Stride <= 0 {
		s.Stride = s.Window
	}
	return s, nil
}

// CollectTraces runs the campaign and returns one victim radio trace per
// session. Sessions run in parallel (par.For, GOMAXPROCS workers); output
// order and content are deterministic in Seed.
func CollectTraces(spec CollectSpec) ([]trace.Trace, error) {
	spec, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	traces := make([]trace.Trace, spec.Sessions)
	err = par.For(spec.Sessions, runtime.GOMAXPROCS(0), func(i int) error {
		tr, err := collectOne(spec, i)
		if err != nil {
			return fmt.Errorf("fingerprint: session %d: %w", i, err)
		}
		traces[i] = tr
		return nil
	})
	if err != nil {
		return nil, err
	}
	return traces, nil
}

// Collect runs the campaign and returns the victim's window vectors, all
// sessions concatenated.
func Collect(spec CollectSpec) ([][]float64, error) {
	spec, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	traces, err := CollectTraces(spec)
	if err != nil {
		return nil, err
	}
	var out [][]float64
	for _, t := range traces {
		out = append(out, WindowVectors(t, spec.Window, spec.Stride)...)
	}
	return out, nil
}

// CollectTrace records the campaign's single numbered session and returns
// the victim's trace. It is the unit of work CollectTraces parallelises;
// experiment runners that already fan campaigns out over a worker pool
// call it directly, one task per (campaign, session) pair, instead of
// nesting a second layer of goroutines.
func CollectTrace(spec CollectSpec, session int) (trace.Trace, error) {
	spec, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	return collectOne(spec, session)
}

// collectOne records a single session and returns the victim's trace. The
// capture behind it is memoized (capture.RunCached), so replaying the same
// campaign — a re-run benchmark, a sweep re-using a setting's captures —
// skips the simulation and re-reads the immutable cached capture.
func collectOne(spec CollectSpec, session int) (trace.Trace, error) {
	res, err := capture.RunCached(scenarioFor(spec, session))
	if err != nil {
		return nil, err
	}
	return res.UserTrace("victim"), nil
}
