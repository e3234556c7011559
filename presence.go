package ltefp

import (
	"fmt"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/attack/presence"
	"ltefp/internal/capture"
	"ltefp/internal/lte/operator"
	"ltefp/internal/sniffer"
)

// PresenceOptions configures a paging-channel presence probe: the attacker
// silently pushes traffic toward the victim at a fixed cadence and
// correlates the broadcast paging channel across the monitored cells
// against the probe schedule.
type PresenceOptions struct {
	// Network is a name from Networks() (default "Lab").
	Network string
	// Cells is how many cells the attacker monitors (default 3). The
	// victim camps in cell 1; the other cells contribute the paging noise
	// the correlation must survive.
	Cells int
	// Population adds this many mostly-idle background UEs per cell,
	// whose sparse wake-ups and push traffic fill the paging channel.
	Population int
	// Probes is how many silent pushes the attacker sends (default 8).
	Probes int
	// ProbeGap spaces the pushes (default: the operator's inactivity
	// timeout plus two seconds, so the victim is idle — and therefore
	// paged — for every probe).
	ProbeGap time.Duration
	// ProbeBytes sizes each push (default 120, a silent-notification
	// payload).
	ProbeBytes int
	// Window bounds how long after a probe a paging record may answer it
	// (default one second).
	Window time.Duration
	// Seed makes the run reproducible.
	Seed uint64
	// Workers spreads cell simulation across goroutines (<= 1 serial).
	Workers int
	// TopK bounds the reported candidate ranking (default 5).
	TopK int
	// Defenses applies countermeasures to the network: SmartPaging
	// enlarges each occasion's anonymity set, ConcealIdentities rotates
	// the paging pseudonym and destroys the linkage.
	Defenses Defense
}

// PresenceCandidate is one ranked TMSI from the paging correlation.
type PresenceCandidate struct {
	TMSI uint32
	// Hits is how many probes this TMSI's pagings answered, of Probes.
	Hits int
	// Score is Hits over the probe count.
	Score float64
	// Outside counts this TMSI's pagings outside every probe window.
	Outside int
	// IsVictim reports whether the TMSI belonged to the victim (ground
	// truth from the simulation, for evaluation).
	IsVictim bool
}

// PresenceResult is the outcome of a presence probe.
type PresenceResult struct {
	// Candidates is the top-K ranking by probe correlation.
	Candidates []PresenceCandidate
	// Detected reports whether the top-ranked candidate is the victim
	// with a majority of probes answered — the attacker's verdict that
	// the target is present.
	Detected bool
	// Probes is the number of pushes sent.
	Probes int
	// AnonymitySet is the number of distinct TMSIs paged inside probe
	// windows — the crowd the victim hides in.
	AnonymitySet int
	// PagingsObserved is the total paging-record count across all cells.
	PagingsObserved int
	// Defense is the measured overhead of the enabled defenses.
	Defense DefenseCost
	// Health aggregates the sniffers' decode-health counters.
	Health CaptureHealth
}

// PresenceProbe runs the paging-channel presence-testing attack across a
// monitored multi-cell deployment and reports whether the probe schedule
// betrays the victim's presence. Smart paging and identity concealment
// (see Defense) are its mitigations.
func PresenceProbe(opts PresenceOptions) (*PresenceResult, error) {
	prof, err := resolveNetwork(opts.Network)
	if err != nil {
		return nil, err
	}
	if err := opts.Defenses.Validate(); err != nil {
		return nil, err
	}
	opts.Defenses.apply(&prof)
	if opts.Cells <= 0 {
		opts.Cells = 3
	}
	if opts.Probes <= 0 {
		opts.Probes = 8
	}
	if opts.ProbeGap <= 0 {
		opts.ProbeGap = prof.InactivityTimeout + 2*time.Second
	}
	if opts.ProbeBytes <= 0 {
		opts.ProbeBytes = 120
	}
	if opts.Window <= 0 {
		opts.Window = time.Second
	}
	if opts.TopK <= 0 {
		opts.TopK = 5
	}
	if opts.ProbeGap <= prof.InactivityTimeout {
		return nil, fmt.Errorf("ltefp: probe gap %v must exceed the operator's %v inactivity timeout, or the victim never returns to idle", opts.ProbeGap, prof.InactivityTimeout)
	}

	const start = time.Second
	cells := make([]capture.Cell, opts.Cells)
	for i := range cells {
		cells[i] = capture.Cell{ID: i + 1, Profile: prof}
	}
	arrivals := appmodel.ProbeStream(opts.Probes, opts.ProbeBytes, opts.ProbeGap)
	sc := capture.Scenario{
		Seed:  opts.Seed,
		Cells: cells,
		Sessions: []capture.Session{{
			UE:       "victim",
			CellID:   1,
			Arrivals: arrivals,
			Start:    start,
			Duration: opts.ProbeGap*time.Duration(opts.Probes-1) + 2*time.Second,
		}},
		Population:       opts.Population,
		Workers:          opts.Workers,
		Sniffer:          sniffer.Config{CorruptProb: sniffer.BaselineCorruption, DownlinkOnly: true},
		ApplyProfileLoss: true,
	}
	res, err := capture.Run(sc)
	if err != nil {
		return nil, fmt.Errorf("ltefp: %w", err)
	}

	probes := make([]time.Duration, opts.Probes)
	for i := range probes {
		probes[i] = start + time.Duration(i)*opts.ProbeGap
	}
	cands := presence.Score(res.Pagings, probes, opts.Window)

	victim := make(map[uint32]bool)
	for _, t := range res.TMSIs["victim"] {
		victim[t] = true
	}
	out := &PresenceResult{
		Probes:          opts.Probes,
		AnonymitySet:    presence.AnonymitySet(cands),
		PagingsObserved: len(res.Pagings),
		Defense:         costFrom(res.Defense),
		Health:          healthFrom(res.Health),
	}
	for i, c := range cands {
		if i >= opts.TopK {
			break
		}
		out.Candidates = append(out.Candidates, PresenceCandidate{
			TMSI: c.TMSI, Hits: c.Hits, Score: c.Score,
			Outside: c.Outside, IsVictim: victim[c.TMSI],
		})
	}
	if len(out.Candidates) > 0 {
		top := out.Candidates[0]
		out.Detected = top.IsVictim && top.Hits*2 > opts.Probes
	}
	return out, nil
}

// resolveNetwork maps a public network name to its operator profile.
func resolveNetwork(network string) (operator.Profile, error) {
	if network == "" {
		network = "Lab"
	}
	p, err := operator.ByName(network)
	if err != nil {
		return operator.Profile{}, fmt.Errorf("ltefp: %w", err)
	}
	return p, nil
}
