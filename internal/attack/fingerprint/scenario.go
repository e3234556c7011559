package fingerprint

import (
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/capture"
	"ltefp/internal/sim"
)

// VictimScenario builds the single-victim capture scenario: one cell of
// spec.Profile, the victim UE running spec.App for spec.SessionDur from
// 500 ms in, overlaid with spec.BackgroundApps noise apps when positive,
// among spec.Population idle UEs. Seed drives the scenario and the noise
// overlay. Every single-victim capture builds its scenario here; Sessions,
// Window and Stride are not read.
func VictimScenario(spec CollectSpec, seed uint64) capture.Scenario {
	sess := capture.Session{
		UE:       "victim",
		CellID:   1,
		App:      spec.App,
		Start:    500 * time.Millisecond,
		Duration: spec.SessionDur,
		Day:      spec.Day,
	}
	if spec.BackgroundApps > 0 {
		sess.Arrivals = mergedArrivals(spec, seed)
	}
	return capture.Scenario{
		Seed:             seed,
		Cells:            []capture.Cell{{ID: 1, Profile: spec.Profile}},
		Sessions:         []capture.Session{sess},
		Population:       spec.Population,
		Sniffer:          spec.Sniffer,
		ApplyProfileLoss: spec.ApplyProfileLoss,
		Metrics:          spec.Metrics,
	}
}

// scenarioFor builds the capture scenario behind one numbered session of a
// campaign (the same scenario collectOne runs).
func scenarioFor(spec CollectSpec, session int) capture.Scenario {
	return VictimScenario(spec, spec.Seed*0x9E3779B9+uint64(session)*0x85EBCA77+1)
}

// mergedArrivals builds the victim's arrival stream for noisy sessions:
// the foreground app overlaid with BackgroundApps noise apps started with
// small mutual delays, reproducing the paper's Fig. 9 methodology ("we run
// the 5 to 10 apps in the background with a delay of 3–4 seconds, chosen
// randomly from the Google store's top 10 free apps including the 9 apps
// we selected").
func mergedArrivals(spec CollectSpec, seed uint64) []appmodel.Arrival {
	g := sim.NewRNG(seed ^ 0xB0B0B0B0)
	day := spec.Day
	if day < 1 {
		day = 1
	}
	env := appmodel.Env{Quality: (spec.Profile.CQIMean - 1) / 14}
	sessions := make([][]appmodel.Arrival, 0, spec.BackgroundApps+1)
	sessions = append(sessions, spec.App.SessionEnv(g, spec.SessionDur, day, env))

	// Candidate pool: generic top-chart apps plus the nine targets.
	pool := appmodel.BackgroundPool()
	pool = append(pool, appmodel.Apps()...)
	delay := time.Duration(0)
	for i := 0; i < spec.BackgroundApps; i++ {
		bg := pool[g.IntN(len(pool))]
		delay += time.Duration(g.Uniform(3, 4) * float64(time.Second))
		remaining := spec.SessionDur - delay
		if remaining <= 0 {
			continue
		}
		arr := bg.SessionEnv(g, remaining, day, env)
		for j := range arr {
			arr[j].At += delay
		}
		sessions = append(sessions, arr)
	}
	return appmodel.MergeSessions(sessions...)
}
