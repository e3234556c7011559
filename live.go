package ltefp

import (
	"context"
	"fmt"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/capture"
	"ltefp/internal/stream"
)

// LiveVerdict is one rolling classification of one radio-layer user,
// raised while the capture is still running. Identity mapping is a batch
// step, so live verdicts name users by (cell, C-RNTI), exactly what the
// paper's attacker sees mid-capture.
type LiveVerdict struct {
	// At is the simulated start time of the newest window in the vote.
	At time.Duration
	// CellID and RNTI identify the user being classified.
	CellID int
	RNTI   uint16
	// App and Category are the rolling majority vote.
	App      string
	Category string
	// Confidence is the majority fraction over the vote horizon; the paper
	// treats values under 0.70 as unstable.
	Confidence float64
	// Windows is how many windows are in the vote.
	Windows int
}

// LiveStats summarises a streaming capture run.
type LiveStats struct {
	// Records, Rows, Predictions and Verdicts count work through the four
	// pipeline stages.
	Records     int64
	Rows        int64
	Predictions int64
	Verdicts    int64
	// RetrainSignals counts drift-monitor firings (rolling confidence
	// below the threshold).
	RetrainSignals int64
	// Users is how many distinct (cell, RNTI) keys were tracked.
	Users int
	// End is the simulated time the capture reached.
	End time.Duration
	// Health is the sniffer decode-health summary, including the
	// plausibility rejects finalised when the capture closed.
	Health CaptureHealth
}

// LiveOptions configures a streaming capture→classify run.
type LiveOptions struct {
	// Capture declares the scenario, exactly as the batch Capture API
	// does. Defaults apply the same way.
	Capture CaptureOptions
	// Model is the trained fingerprinter classifying the stream
	// (required).
	Model *Fingerprinter
	// Slice is the simulated time stepped per pipeline pull (default
	// 100 ms).
	Slice time.Duration
	// VoteHorizon is the rolling vote length in windows (default 50).
	VoteHorizon int
	// MinVerdictWindows is how many windows a user needs before verdicts
	// are emitted (default 5).
	MinVerdictWindows int
	// DriftThreshold is the retrain confidence gate (default 0.70).
	DriftThreshold float64
	// OnVerdict, when set, receives every rolling verdict as it forms.
	OnVerdict func(LiveVerdict)
	// OnRetrain, when set, receives the verdict state at each drift
	// firing.
	OnRetrain func(LiveVerdict)
}

// LiveCapture simulates a victim session and classifies it while it runs:
// the streaming counterpart to Capture followed by Fingerprinter.Identify.
// Cancelling ctx stops the capture early; the pipeline drains and the
// stats gathered so far are returned with ctx's error.
func LiveCapture(ctx context.Context, opts LiveOptions) (*LiveStats, error) {
	if opts.Model == nil {
		return nil, fmt.Errorf("ltefp: LiveOptions.Model is required")
	}
	sc, err := victimScenario(opts.Capture)
	if err != nil {
		return nil, err
	}
	live, err := capture.NewLive(sc)
	if err != nil {
		return nil, fmt.Errorf("ltefp: %w", err)
	}
	defer live.Close()

	categories := make(map[string]string, len(appmodel.Apps()))
	for _, a := range appmodel.Apps() {
		categories[a.Name] = a.Category.String()
	}
	verdictOut := func(v stream.Verdict) LiveVerdict {
		return LiveVerdict{
			At:         v.At,
			CellID:     v.Key.CellID,
			RNTI:       uint16(v.Key.RNTI),
			App:        v.App,
			Category:   categories[v.App],
			Confidence: v.Confidence,
			Windows:    v.Windows,
		}
	}
	cfg := stream.Config{
		Classifier:        opts.Model.clf,
		VoteHorizon:       opts.VoteHorizon,
		MinVerdictWindows: opts.MinVerdictWindows,
		DriftThreshold:    opts.DriftThreshold,
		Metrics:           opts.Capture.Metrics.Scope("stream"),
	}
	if opts.OnVerdict != nil {
		cb := opts.OnVerdict
		cfg.OnVerdict = func(v stream.Verdict) { cb(verdictOut(v)) }
	}
	if opts.OnRetrain != nil {
		cb := opts.OnRetrain
		cfg.OnRetrain = func(s stream.RetrainSignal) {
			cb(LiveVerdict{
				At:         s.At,
				CellID:     s.Key.CellID,
				RNTI:       uint16(s.Key.RNTI),
				Confidence: s.Confidence,
				Windows:    s.Windows,
			})
		}
	}
	st, runErr := stream.Run(ctx, &stream.LiveSource{Live: live, Slice: opts.Slice}, cfg)
	live.Close()
	out := &LiveStats{
		Records:        st.Records,
		Rows:           st.Rows,
		Predictions:    st.Predictions,
		Verdicts:       st.Verdicts,
		RetrainSignals: st.RetrainSignals,
		Users:          st.Users,
		End:            st.End,
		Health:         healthFrom(live.Health()),
	}
	if runErr != nil {
		return out, fmt.Errorf("ltefp: %w", runErr)
	}
	return out, nil
}
