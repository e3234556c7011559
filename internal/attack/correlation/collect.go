package correlation

import (
	"fmt"
	"runtime"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/capture"
	"ltefp/internal/lte/operator"
	"ltefp/internal/ml/dataset"
	"ltefp/internal/par"
	"ltefp/internal/sim"
	"ltefp/internal/sniffer"
	"ltefp/internal/trace"
)

// pairRNG derives the conversation-content stream for a pair capture.
func pairRNG(seed uint64) *sim.RNG {
	return sim.NewRNG(seed ^ 0xC0FFEE12345)
}

// noisy reports whether the setting adds on-phone background traffic to
// the victims: commercial-network phones always carry OS chatter, while
// the paper's lab pairs ran the conversation app alone.
func noisy(spec PairSpec) bool { return spec.Profile.BackgroundUEs > 0 }

// lightNoiseApps names the always-on OS chatter overlaid on commercial
// victims (push, mail sync, weather) — light enough that a conversation
// still dominates the trace, as on a phone that is actively in use.
var lightNoiseApps = map[string]bool{
	"PushNotifications": true,
	"EmailSync":         true,
	"Weather":           true,
}

// withPairNoise overlays a victim's conversation with one or two
// independent light background apps on commercial settings.
func withPairNoise(spec PairSpec, g *sim.RNG, env appmodel.Env, conv []appmodel.Arrival) []appmodel.Arrival {
	if !noisy(spec) {
		return conv
	}
	var pool []appmodel.App
	for _, a := range appmodel.BackgroundPool() {
		if lightNoiseApps[a.Name] {
			pool = append(pool, a)
		}
	}
	streams := [][]appmodel.Arrival{conv}
	for i := 0; i < 1+g.IntN(2); i++ {
		bg := pool[g.IntN(len(pool))]
		streams = append(streams, bg.SessionEnv(g, spec.Duration, 1, env))
	}
	return appmodel.MergeSessions(streams...)
}

// PairSpec describes one two-victim capture.
type PairSpec struct {
	// Profile is the network environment of both victims' cells.
	Profile operator.Profile
	// App is the messaging or VoIP app under test.
	App appmodel.App
	// Communicating selects a real conversation (paired traffic) versus
	// two independent sessions of the same app — the hard negatives the
	// contact classifier must reject.
	Communicating bool
	// Duration is the conversation length.
	Duration time.Duration
	// Bin is the similarity window T_w (default 1 s).
	Bin time.Duration
	// Seed makes the pair reproducible.
	Seed uint64
	// Sniffer and ApplyProfileLoss configure capture fidelity.
	Sniffer          sniffer.Config
	ApplyProfileLoss bool
}

// CollectPair runs one two-victim capture (victims in adjacent cells, one
// sniffer each) and reduces it to contact evidence.
func CollectPair(spec PairSpec) (Evidence, error) {
	if spec.Bin <= 0 {
		spec.Bin = DefaultBin
	}
	a, b, start, end, err := CollectPairTraces(spec)
	if err != nil {
		return Evidence{}, err
	}
	ev := PairEvidence(a, b, spec.Bin, start, end)
	ev.Communicating = spec.Communicating
	return ev, nil
}

// CollectPairTraces runs one two-victim capture and returns the two
// victims' raw radio traces with their common span — the input for
// evidence extraction at any similarity window T_w.
func CollectPairTraces(spec PairSpec) (a, b trace.Trace, start, end time.Duration, err error) {
	if spec.App.Category == appmodel.Streaming {
		return nil, nil, 0, 0, fmt.Errorf("correlation: %s is a streaming app; the attack covers messaging and VoIP", spec.App.Name)
	}
	start = 500 * time.Millisecond
	sessions := []capture.Session{
		{UE: "victim-A", CellID: 1, Start: start, Duration: spec.Duration},
		{UE: "victim-B", CellID: 2, Start: start, Duration: spec.Duration},
	}
	g := pairRNG(spec.Seed)
	env := appmodel.Env{Quality: (spec.Profile.CQIMean - 1) / 14}
	if spec.Communicating {
		// One conversation, two derived sides, generated under the
		// network conditions of the setting's typical channel.
		caller, callee := appmodel.Paired(spec.App, g, spec.Duration, 1, env)
		sessions[0].Arrivals = withPairNoise(spec, g, env, caller)
		sessions[1].Arrivals = withPairNoise(spec, g, env, callee)
	} else if noisy(spec) {
		sideA := spec.App.SessionEnv(g, spec.Duration, 1, env)
		sideB := spec.App.SessionEnv(g, spec.Duration, 1, env)
		sessions[0].Arrivals = withPairNoise(spec, g, env, sideA)
		sessions[1].Arrivals = withPairNoise(spec, g, env, sideB)
	} else {
		sessions[0].App = spec.App
		sessions[1].App = spec.App
	}
	res, err := capture.Run(capture.Scenario{
		Seed: spec.Seed,
		Cells: []capture.Cell{
			{ID: 1, Profile: spec.Profile},
			{ID: 2, Profile: spec.Profile},
		},
		Sessions:         sessions,
		Sniffer:          spec.Sniffer,
		ApplyProfileLoss: spec.ApplyProfileLoss,
	})
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("correlation: %w", err)
	}
	return res.UserTrace("victim-A"), res.UserTrace("victim-B"), start, start + spec.Duration, nil
}

// CollectPairs gathers n communicating and n independent pairs for one app
// and setting, in parallel, deterministically in seed.
func CollectPairs(spec PairSpec, n int) ([]Evidence, error) {
	out := make([]Evidence, 2*n)
	err := par.For(2*n, runtime.GOMAXPROCS(0), func(i int) error {
		s := spec
		s.Communicating = i < n
		s.Seed = spec.Seed*0x01000193 + uint64(i)*0x10001 + 7
		ev, err := CollectPair(s)
		out[i] = ev
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// newEvidenceDataset converts evidence samples into a dataset for the
// logistic regression.
func newEvidenceDataset(samples []Evidence) *dataset.Dataset {
	ds := dataset.New(classNames, featureNames)
	for _, e := range samples {
		y := 0
		if e.Communicating {
			y = 1
		}
		ds.Add(e.vector(), y)
	}
	return ds
}
