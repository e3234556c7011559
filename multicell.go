package ltefp

import (
	"fmt"
	"time"

	"ltefp/internal/capture"
	"ltefp/internal/identity"
	"ltefp/internal/sniffer"
)

// CellMove is one mobility step of the victim's itinerary across the
// monitored cells.
type CellMove struct {
	// ToCell is the destination cell (1-based, up to Cells).
	ToCell int
	// At is when the move is requested.
	At time.Duration
	// Handover moves the victim while connected (X2 handover, anonymous in
	// the target cell); false waits for idle and reselects.
	Handover bool
}

// MultiCellOptions configures a metro-area capture: one sniffer per cell,
// a victim whose itinerary crosses cells, and the cross-cell tracker
// chaining the victim's identity through anonymous handovers.
type MultiCellOptions struct {
	// Network is a name from Networks() (default "Lab").
	Network string
	// App is a name from Apps().
	App string
	// Duration is the victim's session length (default one minute).
	Duration time.Duration
	// Seed makes the capture reproducible.
	Seed uint64
	// Cells is how many cells the attacker monitors (default 3).
	Cells int
	// Itinerary moves the victim between cells. When empty, a default
	// itinerary hands the victim over through every cell, evenly spaced
	// across the session.
	Itinerary []CellMove
	// Workers spreads cell simulation across goroutines (<= 1 serial);
	// output is byte-identical at every setting.
	Workers int
	// Population adds this many mostly-idle background UEs per cell (~1%
	// concurrently active), so the tracker must chain the victim through
	// cells crowded with attached subscribers.
	Population int
	// Tracking tunes the cross-cell tracker; the zero value uses the
	// defaults of identity.TrackConfig.
	Tracking TrackingOptions
	// Defenses applies composable countermeasures to every cell in the
	// deployment (see Defense); the zero value is the undefended network.
	Defenses Defense
}

// TrackingOptions are the attacker-tunable knobs of the cross-cell
// tracker.
type TrackingOptions struct {
	// HandoverWindow bounds how long after the tracked RNTI falls silent
	// an anonymous admission elsewhere may be chained (default 500 ms).
	HandoverWindow time.Duration
	// MinContinuity rejects chains whose traffic profiles disagree
	// (default 0.35).
	MinContinuity float64
}

// TrackedSegment is one attributed stretch of the victim's cross-cell
// timeline.
type TrackedSegment struct {
	CellID int
	RNTI   uint16
	// TMSI is the identity the segment is attributed to; Observed reports
	// whether it was seen in plaintext (false for handover-chained
	// segments, where it is inherited along the chain).
	TMSI     uint32
	Observed bool
	From, To time.Duration
	// Link is "seed", "tmsi", or "handover".
	Link string
	// Confidence is 1 for plaintext links, the accumulated traffic-
	// continuity score in (0, 1] for handover chains.
	Confidence float64
}

// MultiCellResult is the outcome of a metro-area capture-and-track run.
type MultiCellResult struct {
	// Victim is the victim's reconstructed cross-cell trace — every record
	// the tracker attributes to the target, suitable for
	// Fingerprinter.Identify.
	Victim []Record
	// Mapped is the plaintext-only baseline: records attributable through
	// observed RNTI↔TMSI bindings alone, without handover chaining.
	Mapped []Record
	// All is every validated record across all sniffers, time-ordered.
	All []Record
	// Segments is the victim's tracked timeline, in time order.
	Segments []TrackedSegment
	// Bindings are all plaintext RNTI↔TMSI observations, all cells.
	Bindings []IdentityBinding
	// Health aggregates every sniffer's decode-health counters.
	Health CaptureHealth
	// Defense is the measured overhead of the enabled defenses across the
	// whole deployment (zero when no defense is on).
	Defense DefenseCost
}

// MultiCellCapture simulates a victim moving through a monitored multi-cell
// deployment and reconstructs its cross-cell timeline: per-cell sniffer
// streams are merged into one ordered capture, plaintext identity bindings
// seed the victim's trail, and anonymous handover admissions are chained by
// timing and traffic continuity (see internal/identity.Track).
func MultiCellCapture(opts MultiCellOptions) (*MultiCellResult, error) {
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
	if opts.Cells <= 0 {
		opts.Cells = 3
	}
	cells := make([]capture.Cell, opts.Cells)
	for i := range cells {
		cells[i] = capture.Cell{ID: i + 1, Profile: prof}
	}
	itinerary := opts.Itinerary
	if len(itinerary) == 0 {
		// Default: hand the victim over through every cell, evenly spaced
		// across the session.
		step := opts.Duration / time.Duration(opts.Cells)
		for c := 2; c <= opts.Cells; c++ {
			itinerary = append(itinerary, CellMove{
				ToCell:   c,
				At:       500*time.Millisecond + step*time.Duration(c-1),
				Handover: true,
			})
		}
	}
	moves := make([]capture.Move, len(itinerary))
	for i, m := range itinerary {
		if m.ToCell < 1 || m.ToCell > opts.Cells {
			return nil, fmt.Errorf("ltefp: itinerary step %d targets cell %d outside 1..%d", i, m.ToCell, opts.Cells)
		}
		moves[i] = capture.Move{UE: "victim", ToCell: m.ToCell, At: m.At, Handover: m.Handover}
	}

	sc := capture.Scenario{
		Seed:  opts.Seed,
		Cells: cells,
		Sessions: []capture.Session{{
			UE:       "victim",
			CellID:   1,
			App:      app,
			Start:    500 * time.Millisecond,
			Duration: opts.Duration,
		}},
		Moves:            moves,
		Population:       opts.Population,
		Sniffer:          sniffer.Config{CorruptProb: sniffer.BaselineCorruption},
		ApplyProfileLoss: true,
		Workers:          opts.Workers,
	}
	res, err := capture.Run(sc)
	if err != nil {
		return nil, fmt.Errorf("ltefp: %w", err)
	}

	segs := identity.Track(res.Events, res.Records, identity.TrackConfig{
		TMSIs:          res.TMSIs["victim"],
		HandoverWindow: opts.Tracking.HandoverWindow,
		MinContinuity:  opts.Tracking.MinContinuity,
	})
	out := &MultiCellResult{
		Victim:  fromTrace(identity.TraceFor(segs, res.Records)),
		Mapped:  fromTrace(res.UserTrace("victim")),
		All:     fromTrace(res.Records),
		Health:  healthFrom(res.Health),
		Defense: costFrom(res.Defense),
	}
	for _, s := range segs {
		out.Segments = append(out.Segments, TrackedSegment{
			CellID: s.CellID, RNTI: uint16(s.RNTI), TMSI: s.TMSI,
			Observed: s.Observed, From: s.From, To: s.To,
			Link: s.Link.String(), Confidence: s.Confidence,
		})
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
