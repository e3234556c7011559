// Package stream is the serving-shaped counterpart to the offline capture
// pipeline: a bounded-channel online path that turns a live
// sniffer feed into rolling per-RNTI app verdicts while the capture is
// still running — the paper's attacker as it actually operates, rather
// than the batch reconstruction the rest of the repository performs after
// the fact.
//
// The pipeline runs on two goroutines joined by one bounded queue:
//
//	producer — steps a record source (the live simulation) one time
//	           slice at a time and queues each slice
//	consumer — the caller's goroutine: routes records to a
//	           per-(cell,RNTI) incremental window extractor
//	           (features.Incremental, the one offline extraction also
//	           runs), runs the fingerprint classifier's batched forest
//	           inference over the emitted rows, and folds predictions
//	           into per-RNTI rolling majority votes, raising verdicts and
//	           watching confidence for drift
//
// The source and the rest of the work overlap, which is most of what the
// pipeline buys over a serial loop. Backpressure only blocks: when the
// queue is full the producer waits, so nothing is ever dropped.
//
// Shutdown is cooperative: cancelling the context stops the producer, the
// consumer processes what is already queued, and Run returns with no
// goroutine left behind.
package stream

import (
	"time"

	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/lte/rnti"
	"ltefp/internal/obs"
)

// Key identifies one tracked user: the observing cell and the C-RNTI the
// scheduler is addressing. The live pipeline deliberately stops at RNTI
// granularity — identity mapping is a post-hoc batch step.
type Key struct {
	CellID int
	RNTI   rnti.RNTI
}

// Verdict is one rolling classification of one user.
type Verdict struct {
	// At is the simulated start time of the newest window in the vote.
	At  time.Duration
	Key Key
	// App is the majority-voted app over the vote horizon.
	App string
	// Confidence is the majority fraction, comparable to the paper's 70%
	// stability gate.
	Confidence float64
	// Windows is how many windows are in the vote.
	Windows int
}

// RetrainSignal is the drift monitor's output: a user whose rolling
// confidence fell below the threshold over a full horizon — the paper's
// Fig. 8 condition for refreshing the fingerprints.
type RetrainSignal struct {
	At         time.Duration
	Key        Key
	Confidence float64
	Windows    int
}

// Queue, batch and drift constants of the pipeline. Every caller runs the
// paper's live attacker with these values, so they are not configurable.
const (
	// queueDepth bounds the producer's queue, in source slices: room for
	// the source to run on through a slow classify call or checkpoint
	// callback instead of waiting on it.
	queueDepth = 64
	// maxBatch caps the rows handed to one classify call.
	maxBatch = 64
	// driftThreshold is the confidence gate, the paper's 70% stability
	// gate.
	driftThreshold = 0.70
	// driftMinWindows is how many windows the vote must hold before the
	// drift monitor may fire.
	driftMinWindows = 30
)

// Config assembles a pipeline.
type Config struct {
	// Classifier is the trained hierarchy (required). Windows are cut at
	// its training geometry (fingerprint.DefaultWindow if it has none).
	Classifier *fingerprint.Classifier

	// VoteHorizon is the rolling vote length in windows (default 50 — five
	// seconds of 100 ms windows).
	VoteHorizon int
	// MinVerdictWindows is how many windows a user needs before verdicts
	// are emitted (default 5).
	MinVerdictWindows int

	// OnVerdict, when set, receives every rolling verdict, from the
	// caller's goroutine.
	OnVerdict func(Verdict)
	// OnRetrain, when set, receives drift signals (latched: one per user
	// per excursion below the threshold).
	OnRetrain func(RetrainSignal)
	// TapWindow, when set, observes every extracted window row before
	// classification, from the caller's goroutine. The row is
	// scratch — copy to retain. Used by the offline-equivalence tests.
	TapWindow func(key Key, start time.Duration, row []float64)

	// CheckpointEvery, when positive, cuts a checkpoint whenever the
	// source crosses a multiple of this much simulated time. The cut is
	// taken once the slice that crossed it has been processed, so the
	// Checkpoint is consistent: assembler state after every record up to
	// the cut, vote state after every window those records completed.
	CheckpointEvery time.Duration
	// OnCheckpoint receives each completed checkpoint, from the caller's
	// goroutine. The checkpoint is plain data owned by the callback; the
	// pipeline never touches it again.
	OnCheckpoint func(*Checkpoint)
	// Restore primes the pipeline with a checkpoint's state before it
	// starts: per-user window assembly, vote rings, drift latches,
	// and cumulative stats. The source must resume at Restore.Now (for a
	// deterministic simulated source, fast-forwarded to that time); the
	// pipeline then produces verdicts byte-identical to an uninterrupted
	// run. Restore fails if the checkpoint's window geometry disagrees
	// with the classifier's or its vote horizon with this configuration.
	Restore *Checkpoint
	// RecoverPanics turns a panic in the source or the consumer into a
	// clean pipeline shutdown: the producer is stopped and waited for, Run
	// returns the panic as an error, and the process survives — the
	// daemon's supervisor then restarts the capture from its last
	// checkpoint.
	RecoverPanics bool

	// Metrics, when enabled, receives per-stage counters and
	// stage-latency histograms under source./assemble./classify./verdict.
	// The zero Scope disables instrumentation.
	Metrics obs.Scope
}

// withDefaults fills the documented defaults.
func (c Config) withDefaults() Config {
	if c.VoteHorizon <= 0 {
		c.VoteHorizon = 50
	}
	if c.MinVerdictWindows <= 0 {
		c.MinVerdictWindows = 5
	}
	return c
}

// geometry returns the window width and stride the pipeline cuts at: the
// classifier's training geometry, with the stride defaulting to the width.
func geometry(clf *fingerprint.Classifier) (window, stride time.Duration) {
	window, stride = clf.Window, clf.Stride
	if window <= 0 {
		window = fingerprint.DefaultWindow
	}
	if stride <= 0 {
		stride = window
	}
	return window, stride
}

// Stats summarises one pipeline run.
type Stats struct {
	// Records is how many sniffer records entered the assembler; Rows how
	// many window rows it emitted; Predictions how many rows were
	// classified; Verdicts how many rolling verdicts were raised.
	Records     int64
	Rows        int64
	Predictions int64
	Verdicts    int64
	// ShedRecords/ShedRows/ShedPredictions are always zero: the pipeline
	// blocks rather than drops. No checkpoint stores them; they stay only
	// because the benchmark harness reads them.
	ShedRecords     int64
	ShedRows        int64
	ShedPredictions int64
	// OutOfOrder counts records the assembler rejected for time-order
	// violations.
	OutOfOrder int64
	// RetrainSignals counts drift-monitor firings.
	RetrainSignals int64
	// Users is how many distinct keys were tracked.
	Users int
	// End is the simulated time the source reached.
	End time.Duration
}
