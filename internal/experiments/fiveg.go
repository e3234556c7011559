package experiments

import (
	"fmt"
	"strings"

	"ltefp/internal/appmodel"
	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/capture"
	"ltefp/internal/lte/operator"
	"ltefp/internal/sniffer"
)

// ConcealmentRow is one identity regime's outcome.
type ConcealmentRow struct {
	Name string
	// Bindings is how many stable RNTI↔identity bindings the sniffer
	// observed.
	Bindings int
	// AttributedFraction is the share of the victim's records the
	// attacker could attribute via identity mapping.
	AttributedFraction float64
}

// ConcealmentResult evaluates the §VIII-C discussion: 5G's SUCI and
// rotating temporary identifiers deny the passive attacker the stable
// identity its targeted attacks are built on. The radio-layer traffic
// itself still leaks (the classifier would still work per-RNTI), but
// binding RNTIs to a *person* — the prerequisite of the history and
// correlation attacks — collapses.
type ConcealmentResult struct {
	Rows []ConcealmentRow
}

// Concealment runs the same victim scenario under LTE-style identities and
// under one-time identifiers.
func Concealment(scale Scale, seed uint64) (*ConcealmentResult, error) {
	app, err := appmodel.ByName("WhatsApp")
	if err != nil {
		return nil, err
	}
	base := operator.TMobile()
	// An empty cell makes attribution exact: every C-RNTI record on the
	// air belongs to the victim, so attributed/total is the true recovery
	// rate of the identity-mapping step.
	base.BackgroundUEs = 0
	concealed := base
	concealed.OneTimeIdentifiers = true

	res := &ConcealmentResult{}
	for _, cfg := range []struct {
		name string
		prof operator.Profile
	}{
		{"LTE identities (TMSI exposed)", base},
		{"5G-style one-time identifiers", concealed},
	} {
		// A messaging victim: its idle lulls force repeated reconnections,
		// each a fresh mapping opportunity (or, concealed, a dead end).
		cap, err := capture.Run(fingerprint.VictimScenario(fingerprint.CollectSpec{
			Profile:          cfg.prof,
			App:              app,
			SessionDur:       scale.MsgDur * 2,
			Population:       scale.Population,
			Sniffer:          sniffer.Config{CorruptProb: sniffer.BaselineCorruption},
			ApplyProfileLoss: true,
		}, seed+6700417))
		if err != nil {
			return nil, fmt.Errorf("experiments: concealment (%s): %w", cfg.name, err)
		}
		bindings := 0
		for _, e := range cap.Events {
			if e.HasTMSI {
				bindings++
			}
		}
		attributed := len(cap.UserTrace("victim"))
		frac := 0.0
		if len(cap.Records) > 0 {
			frac = float64(attributed) / float64(len(cap.Records))
		}
		res.Rows = append(res.Rows, ConcealmentRow{
			Name:               cfg.name,
			Bindings:           bindings,
			AttributedFraction: frac,
		})
	}
	return res, nil
}

// String renders the comparison.
func (r *ConcealmentResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Identity concealment (§VIII-C, 5G SUCI-style protection)\n")
	fmt.Fprintf(&b, "%-32s %10s %12s\n", "regime", "bindings", "attributed")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-32s %10d %11.1f%%\n", row.Name, row.Bindings, 100*row.AttributedFraction)
	}
	return b.String()
}
