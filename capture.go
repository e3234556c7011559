package ltefp

import (
	"fmt"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/capture"
	"ltefp/internal/lte/operator"
	"ltefp/internal/obs"
	"ltefp/internal/sim"
	"ltefp/internal/sniffer"
)

// baselineCorruption is the decode-corruption rate every capture applies:
// blind PDCCH decoding always produces a trickle of bogus candidates.
const baselineCorruption = 0.002

// CaptureOptions configures a single-victim capture: the victim runs one
// app for the duration in one cell of the chosen network, observed by a
// passive sniffer, while the network's ambient background users come and
// go around it.
type CaptureOptions struct {
	// Network is a name from Networks() (default "Lab").
	Network string
	// App is a name from Apps().
	App string
	// Duration is the session length (default one minute).
	Duration time.Duration
	// Day selects the app-drift day; 0 and 1 both mean the training day.
	Day int
	// Seed makes the capture reproducible.
	Seed uint64
	// DownlinkOnly restricts the sniffer to the downlink channel, as one
	// SDR covering a single direction would be.
	DownlinkOnly bool
	// BackgroundApps runs this many noise apps on the victim's own UE
	// alongside the foreground app (the paper's Fig. 9 setting).
	BackgroundApps int
	// Population adds this many mostly-idle background UEs to the cell on
	// top of the profile's ambient users: they attach early and then wake
	// only sparsely (~1% concurrently active), so the victim hides in a
	// metro-scale crowd of attached subscribers.
	Population int
	// Defenses applies the paper's countermeasures to the network.
	Defenses Defense
	// Metrics, when non-nil, additionally records per-cell decode-health
	// and scheduler metrics into the given registry (see internal/obs).
	Metrics *obs.Registry
}

// CaptureResult is what the attacker's sniffer recorded.
type CaptureResult struct {
	// Victim holds the records attributed to the victim via identity
	// mapping — the input to Fingerprinter.Identify.
	Victim []Record
	// All holds every validated record in the cell, victim and ambient
	// users alike.
	All []Record
	// Bindings are the plaintext RNTI↔TMSI mappings observed.
	Bindings []IdentityBinding
	// Health summarises the sniffer's decode health for this capture — the
	// numbers a fingerprinting result must be interpreted next to.
	Health CaptureHealth
	// Defense is the measured overhead of the enabled defenses (zero when
	// no defense is on).
	Defense DefenseCost
}

// CaptureHealth is the sniffer-side decode-health summary of one capture.
type CaptureHealth struct {
	// Candidates is the number of PDCCH candidates scanned.
	Candidates int64
	// Captured is the number of user-plane records decoded and kept.
	Captured int64
	// Dropped is the number of candidates lost to the capture-loss model.
	Dropped int64
	// Corrupted counts bit-corrupted payloads; CorruptCaught of those were
	// rejected at the decode stage, CorruptLeaked decoded into ghost RNTIs
	// left to the plausibility filter.
	Corrupted     int64
	CorruptCaught int64
	CorruptLeaked int64
	// ParseRejects is the number of candidates failing DCI validation.
	ParseRejects int64
	// PlausibilityRejects is the number of captured records the
	// plausibility filter discarded as decode artefacts (RNTIs seen fewer
	// than three times).
	PlausibilityRejects int64
}

// LossRate returns the observed capture-loss fraction (0 when nothing was
// scanned).
func (h CaptureHealth) LossRate() float64 {
	if h.Candidates == 0 {
		return 0
	}
	return float64(h.Dropped) / float64(h.Candidates)
}

// scenarioFor builds the single-victim capture scenario shared by the
// batch Capture and the streaming LiveCapture paths. opts.Duration must
// already be defaulted and Defenses applied to prof.
func scenarioFor(opts CaptureOptions, prof operator.Profile, app appmodel.App) capture.Scenario {
	sess := capture.Session{
		UE:       "victim",
		CellID:   1,
		App:      app,
		Start:    500 * time.Millisecond,
		Duration: opts.Duration,
		Day:      opts.Day,
	}
	if opts.BackgroundApps > 0 {
		sess.Arrivals = noisyArrivals(prof, app, opts)
	}
	return capture.Scenario{
		Seed:             opts.Seed,
		Cells:            []capture.Cell{{ID: 1, Profile: prof}},
		Sessions:         []capture.Session{sess},
		Population:       opts.Population,
		Sniffer:          sniffer.Config{CorruptProb: baselineCorruption, DownlinkOnly: opts.DownlinkOnly},
		ApplyProfileLoss: true,
		Metrics:          opts.Metrics.Scope("capture"),
	}
}

// healthFrom converts the aggregated sniffer counters to the public view.
func healthFrom(st sniffer.Stats) CaptureHealth {
	return CaptureHealth{
		Candidates:          st.Candidates,
		Captured:            st.Captured,
		Dropped:             st.Dropped,
		Corrupted:           st.Corrupted,
		CorruptCaught:       st.CorruptCaught,
		CorruptLeaked:       st.CorruptLeaked,
		ParseRejects:        st.ParseRejects,
		PlausibilityRejects: st.PlausibilityRejects,
	}
}

// Capture simulates and records one victim session.
func Capture(opts CaptureOptions) (*CaptureResult, error) {
	prof, app, err := resolve(opts.Network, opts.App)
	if err != nil {
		return nil, err
	}
	if err := opts.Defenses.Validate(); err != nil {
		return nil, err
	}
	opts.Defenses.apply(&prof)
	if opts.Duration <= 0 {
		opts.Duration = time.Minute
	}
	res, err := capture.Run(scenarioFor(opts, prof, app))
	if err != nil {
		return nil, fmt.Errorf("ltefp: %w", err)
	}
	out := &CaptureResult{
		Victim:  fromTrace(res.UserTrace("victim")),
		All:     fromTrace(res.Records),
		Health:  healthFrom(res.Health),
		Defense: costFrom(res.Defense),
	}
	for _, e := range res.Events {
		if e.HasTMSI {
			out.Bindings = append(out.Bindings, IdentityBinding{
				At: e.At, CellID: e.CellID, RNTI: uint16(e.RNTI), TMSI: e.TMSI,
			})
		}
	}
	return out, nil
}

// noisyArrivals overlays the foreground app with background noise apps.
func noisyArrivals(prof operator.Profile, app appmodel.App, opts CaptureOptions) []appmodel.Arrival {
	g := sim.NewRNG(opts.Seed ^ 0xB0B0B0B0)
	day := opts.Day
	if day < 1 {
		day = 1
	}
	env := appmodel.Env{Quality: (prof.CQIMean - 1) / 14}
	streams := [][]appmodel.Arrival{app.SessionEnv(g, opts.Duration, day, env)}
	pool := append(appmodel.BackgroundPool(), appmodel.Apps()...)
	delay := time.Duration(0)
	for i := 0; i < opts.BackgroundApps; i++ {
		bg := pool[g.IntN(len(pool))]
		delay += time.Duration(g.Uniform(3, 4) * float64(time.Second))
		if delay >= opts.Duration {
			break
		}
		arr := bg.SessionEnv(g, opts.Duration-delay, day, env)
		for j := range arr {
			arr[j].At += delay
		}
		streams = append(streams, arr)
	}
	return appmodel.MergeSessions(streams...)
}

// resolve maps public names to internal configuration.
func resolve(network, app string) (operator.Profile, appmodel.App, error) {
	if network == "" {
		network = "Lab"
	}
	prof, err := operator.ByName(network)
	if err != nil {
		return operator.Profile{}, appmodel.App{}, fmt.Errorf("ltefp: %w", err)
	}
	a, err := appmodel.ByName(app)
	if err != nil {
		return operator.Profile{}, appmodel.App{}, fmt.Errorf("ltefp: %w", err)
	}
	return prof, a, nil
}
