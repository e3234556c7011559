package ltefp

import (
	"fmt"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/capture"
	"ltefp/internal/lte/operator"
	"ltefp/internal/obs"
	"ltefp/internal/sniffer"
)

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

// victimScenario is the step Capture and LiveCapture share: it resolves
// the names, validates and applies the defenses, defaults the duration and
// builds the single-victim scenario.
func victimScenario(opts CaptureOptions) (capture.Scenario, error) {
	prof, app, err := resolve(opts.Network, opts.App)
	if err != nil {
		return capture.Scenario{}, err
	}
	if err := opts.Defenses.Validate(); err != nil {
		return capture.Scenario{}, err
	}
	opts.Defenses.apply(&prof)
	if opts.Duration <= 0 {
		opts.Duration = time.Minute
	}
	return fingerprint.VictimScenario(fingerprint.CollectSpec{
		Profile:          prof,
		App:              app,
		SessionDur:       opts.Duration,
		Day:              opts.Day,
		Sniffer:          sniffer.Config{CorruptProb: sniffer.BaselineCorruption, DownlinkOnly: opts.DownlinkOnly},
		ApplyProfileLoss: true,
		BackgroundApps:   opts.BackgroundApps,
		Population:       opts.Population,
		Metrics:          opts.Metrics.Scope("capture"),
	}, opts.Seed), nil
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
	sc, err := victimScenario(opts)
	if err != nil {
		return nil, err
	}
	res, err := capture.Run(sc)
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
