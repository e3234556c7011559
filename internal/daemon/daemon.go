// Package daemon is the long-running attacker: many concurrent live
// captures (one simulated cell + sniffer each) feeding streaming
// classification pipelines, with rolling verdicts served over the obs
// debug HTTP surface, pipeline state periodically checkpointed to
// versioned snapshot files.
//
// A capture fails in one way: a pipeline run returns an error, either
// from setting up the capture or from a panic in the source or the
// pipeline that the stream package turns into an error
// (stream.Config.RecoverPanics). The
// supervisor then restarts the capture from its last checkpoint after a
// jittered exponential backoff, up to Config.MaxRestarts times, and marks
// it failed (and /healthz degraded) when the budget is spent.
//
// The recovery contract is inherited from the stream package: a capture
// restarted from a checkpoint re-simulates the deterministic scenario up
// to the checkpoint time (discarding output), restores the pipeline state,
// and then produces verdicts byte-identical to a run that was never
// interrupted — the property the e2e kill-and-restart test pins.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/capture"
	"ltefp/internal/lte/operator"
	"ltefp/internal/obs"
	"ltefp/internal/par"
	"ltefp/internal/sim"
	"ltefp/internal/sniffer"
	"ltefp/internal/stream"
	"ltefp/internal/trace"
)

// Spec declares one capture the daemon runs: a single-victim scenario on
// one cell, mirroring the ltesniff CLI's options.
type Spec struct {
	// Name identifies the capture: checkpoint filename, verdict-line
	// prefix, and HTTP keys. Must be unique and non-empty.
	Name string
	// Network and App name the scenario (as in ltefp.Networks/Apps).
	Network string
	App     string
	// Duration is the session length (default one minute).
	Duration time.Duration
	// Seed makes the capture reproducible.
	Seed uint64
	// Day selects the app-drift day (0/1 = training day).
	Day int
	// DownlinkOnly restricts the sniffer to the downlink channel.
	DownlinkOnly bool
	// BackgroundApps runs noise apps on the victim UE.
	BackgroundApps int
}

// scenario builds the capture scenario for a spec.
func (s Spec) scenario(metrics obs.Scope) (capture.Scenario, error) {
	network := s.Network
	if network == "" {
		network = "Lab"
	}
	prof, err := operator.ByName(network)
	if err != nil {
		return capture.Scenario{}, err
	}
	app, err := appmodel.ByName(s.App)
	if err != nil {
		return capture.Scenario{}, err
	}
	dur := s.Duration
	if dur <= 0 {
		dur = time.Minute
	}
	return fingerprint.VictimScenario(fingerprint.CollectSpec{
		Profile:          prof,
		App:              app,
		SessionDur:       dur,
		Day:              s.Day,
		Sniffer:          sniffer.Config{CorruptProb: sniffer.BaselineCorruption, DownlinkOnly: s.DownlinkOnly},
		ApplyProfileLoss: true,
		BackgroundApps:   s.BackgroundApps,
		Metrics:          metrics,
	}, s.Seed), nil
}

// Config assembles a daemon.
type Config struct {
	// Classifier is the trained hierarchy every capture classifies with
	// (required).
	Classifier *fingerprint.Classifier
	// Specs are the captures to run concurrently.
	Specs []Spec

	// CheckpointDir, when set, persists each capture's pipeline state to
	// <dir>/<name>.ckpt and resumes from it on start and after failures.
	CheckpointDir string
	// CheckpointEvery is the checkpoint period in simulated time (default
	// 5 s; requires CheckpointDir).
	CheckpointEvery time.Duration
	// Slice is the simulated time stepped per pipeline pull (default
	// 100 ms). CheckpointEvery should be a multiple of it.
	Slice time.Duration

	// Out receives verdict lines (one per app-change, plus finals); nil
	// discards them. Lines are prefixed with the capture name, so
	// interleaved captures stay separable.
	Out io.Writer
	// VerboseVerdicts prints every rolling verdict instead of only
	// app-changes — the e2e convergence harness turns this on.
	VerboseVerdicts bool

	// MaxRestarts bounds restarts per capture (default 5; <0 unbounded).
	MaxRestarts int
	// RestartBackoff paces restarts (default NewBackoff with seed 1).
	RestartBackoff Backoff
	// Sleep replaces the restart wait (tests inject instant sleeps).
	Sleep func(ctx context.Context, d time.Duration) error

	// Metrics, when non-nil, receives per-capture pipeline and sniffer
	// metrics, and is served by the debug HTTP endpoint.
	Metrics *obs.Registry
}

// withDefaults fills the documented defaults.
func (c Config) withDefaults() Config {
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 5 * time.Second
	}
	if c.Slice <= 0 {
		c.Slice = 100 * time.Millisecond
	}
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 5
	}
	if c.RestartBackoff.Base == 0 {
		c.RestartBackoff = NewBackoff(sim.NewRNG(1))
	}
	return c
}

// tailSpan is how much trailing simulated time of raw records each capture
// retains for the /sweep endpoint.
const tailSpan = 30 * time.Second

// Backoff computes jittered exponential restart delays: attempt n
// (0-based) waits Base·Factor^n, capped at Max, with the final delay drawn
// uniformly from [delay·(1−Jitter), delay]. The zero value is unusable;
// use NewBackoff for the daemon's defaults.
type Backoff struct {
	Base   time.Duration
	Max    time.Duration
	Factor float64
	// Jitter is the fraction of the delay randomised away (0 disables,
	// 0.5 means delays land in [half, full]).
	Jitter float64
	// RNG drives the jitter draws (required when Jitter > 0).
	RNG *sim.RNG
}

// NewBackoff returns the daemon's default schedule: 100 ms doubling to a
// 10 s cap with 50% jitter.
func NewBackoff(rng *sim.RNG) Backoff {
	return Backoff{Base: 100 * time.Millisecond, Max: 10 * time.Second, Factor: 2, Jitter: 0.5, RNG: rng}
}

// Delay returns the wait before restart attempt n (0-based).
func (b Backoff) Delay(attempt int) time.Duration {
	d := float64(b.Base)
	for i := 0; i < attempt && d < float64(b.Max); i++ {
		d *= b.Factor
	}
	d = min(d, float64(b.Max))
	if b.Jitter > 0 && b.RNG != nil {
		d *= 1 - b.Jitter*b.RNG.Float64()
	}
	return time.Duration(d)
}

// State is a capture's lifecycle position.
type State string

// Capture states.
const (
	StatePending    State = "pending"
	StateRunning    State = "running"
	StateRestarting State = "restarting"
	StateDone       State = "done"
	StateFailed     State = "failed"
	StateStopped    State = "stopped"
)

// captureRun is one capture's mutable state.
type captureRun struct {
	spec     Spec
	scenario capture.Scenario
	ckptPath string

	mu        sync.Mutex
	state     State
	restarts  int
	lastErr   error
	stats     stream.Stats
	health    sniffer.Stats
	now       time.Duration
	ckptAt    time.Duration
	ckptSize  int64
	latest    map[stream.Key]stream.Verdict
	order     []stream.Key
	tail      map[stream.Key][]trace.Record
	restored  bool
	ckptDrops int64
}

// Daemon runs the configured captures until they complete or the context
// is cancelled.
type Daemon struct {
	cfg  Config
	caps []*captureRun

	outMu sync.Mutex
	// backoffMu serialises restart delays: captures restart concurrently
	// and share cfg.RestartBackoff's jitter RNG.
	backoffMu sync.Mutex

	modelSections map[string][]byte // cached encoded classifier, nil until first checkpoint use

	ckptWrites  *obs.Counter
	ckptBytes   *obs.Counter
	ckptMS      *obs.Histogram
	restartsC   *obs.Counter
	ckptRejects *obs.Counter
}

// New validates the configuration and builds the daemon.
func New(cfg Config) (*Daemon, error) {
	cfg = cfg.withDefaults()
	if cfg.Classifier == nil {
		return nil, fmt.Errorf("daemon: Classifier is required")
	}
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("daemon: no captures configured")
	}
	if cfg.CheckpointEvery%cfg.Slice != 0 {
		return nil, fmt.Errorf("daemon: CheckpointEvery %v is not a multiple of Slice %v", cfg.CheckpointEvery, cfg.Slice)
	}
	d := &Daemon{cfg: cfg}
	scope := cfg.Metrics.Scope("daemon")
	d.ckptWrites = scope.Counter("checkpoint_writes")
	d.ckptBytes = scope.Counter("checkpoint_bytes")
	d.ckptMS = scope.Histogram("checkpoint_write_ms", obs.LatencyBuckets())
	d.restartsC = scope.Counter("capture_restarts")
	d.ckptRejects = scope.Counter("checkpoint_rejects")
	seen := map[string]bool{}
	for _, spec := range cfg.Specs {
		if spec.Name == "" {
			return nil, fmt.Errorf("daemon: capture with empty name")
		}
		if seen[spec.Name] {
			return nil, fmt.Errorf("daemon: duplicate capture name %q", spec.Name)
		}
		seen[spec.Name] = true
		sc, err := spec.scenario(cfg.Metrics.Scope("daemon." + spec.Name + ".capture"))
		if err != nil {
			return nil, fmt.Errorf("daemon: capture %q: %w", spec.Name, err)
		}
		cr := &captureRun{
			spec:     spec,
			scenario: sc,
			state:    StatePending,
			latest:   map[stream.Key]stream.Verdict{},
			tail:     map[stream.Key][]trace.Record{},
		}
		if cfg.CheckpointDir != "" {
			cr.ckptPath = checkpointPath(cfg.CheckpointDir, spec.Name)
		}
		d.caps = append(d.caps, cr)
	}
	return d, nil
}

// Run executes every capture concurrently and blocks until all complete
// (or ctx is cancelled and the pipelines drain). The returned error is
// the first capture failure, if any; cancellation alone is not an error.
func (d *Daemon) Run(ctx context.Context) error {
	return par.For(len(d.caps), len(d.caps), func(i int) error {
		return d.runCapture(ctx, d.caps[i])
	})
}

// runCapture supervises one capture: run, checkpoint, and on failure
// restart from the last checkpoint with backoff, up to the restart
// budget.
func (d *Daemon) runCapture(ctx context.Context, cr *captureRun) error {
	slp := d.cfg.Sleep
	if slp == nil {
		slp = func(ctx context.Context, dur time.Duration) error {
			t := time.NewTimer(dur)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	for attempt := 0; ; attempt++ {
		err := d.runOnce(ctx, cr)
		if err == nil {
			cr.setState(StateDone)
			return nil
		}
		if ctx.Err() != nil {
			cr.setState(StateStopped)
			return nil
		}
		// A restart is counted only once one is scheduled, so a spent
		// budget reads MaxRestarts, as its error says.
		spent := d.cfg.MaxRestarts >= 0 && attempt >= d.cfg.MaxRestarts
		cr.mu.Lock()
		cr.lastErr = err
		if !spent {
			cr.restarts++
		}
		cr.mu.Unlock()
		if spent {
			cr.setState(StateFailed)
			return fmt.Errorf("daemon: capture %q failed after %d restarts: %w", cr.spec.Name, attempt, err)
		}
		d.restartsC.Inc()
		cr.setState(StateRestarting)
		d.printf("[%s] restarting after error: %v\n", cr.spec.Name, err)
		d.backoffMu.Lock()
		wait := d.cfg.RestartBackoff.Delay(attempt)
		d.backoffMu.Unlock()
		if slp(ctx, wait) != nil {
			cr.setState(StateStopped)
			return nil
		}
	}
}

// runOnce executes one pipeline run of a capture, resuming from the
// latest checkpoint when one is loadable. A checkpoint the pipeline itself
// refuses (stream.ErrRestore) is rejected like any other: the run starts
// fresh instead.
func (d *Daemon) runOnce(ctx context.Context, cr *captureRun) error {
	rs := d.loadCheckpoint(cr)
	err := d.runFrom(ctx, cr, rs)
	if rs != nil && errors.Is(err, stream.ErrRestore) {
		d.ckptRejects.Inc()
		d.printf("[%s] ignoring checkpoint %s: %v; starting fresh\n", cr.spec.Name, cr.ckptPath, err)
		err = d.runFrom(ctx, cr, nil)
	}
	return err
}

// runFrom executes one pipeline run of a capture from the start, or from
// rs when it is not nil.
func (d *Daemon) runFrom(ctx context.Context, cr *captureRun, rs *restoreState) error {
	live, err := capture.NewLive(cr.scenario)
	if err != nil {
		return err
	}
	defer func() { live.Close() }()

	var restore *stream.Checkpoint
	var src stream.Source = &stream.LiveSource{Live: live, Slice: d.cfg.Slice}
	// The verdict summary held before adopting the checkpoint's, put back
	// if the pipeline refuses the checkpoint.
	cr.mu.Lock()
	latest, order := cr.latest, cr.order
	cr.mu.Unlock()
	if rs != nil {
		restore = rs.ck
		// Re-simulate the deterministic scenario to the checkpoint time in
		// the same slice steps, discarding output; the slice grid then
		// matches the original run's exactly.
		scratch := trace.Trace{}
		for live.Now() < restore.Now {
			if _, _, more := live.Step(scratch[:0], d.cfg.Slice); !more {
				break
			}
		}
		if live.Now() != restore.Now {
			d.ckptRejects.Inc()
			d.printf("[%s] checkpoint at %v is beyond the scenario end %v; starting fresh\n",
				cr.spec.Name, restore.Now, live.Now())
			live.Close()
			if live, err = capture.NewLive(cr.scenario); err != nil {
				return err
			}
			src = &stream.LiveSource{Live: live, Slice: d.cfg.Slice}
			restore = nil
		}
		cr.mu.Lock()
		cr.restored = restore != nil
		if restore != nil {
			// Adopt the verdict summary saved at the cut — including users
			// whose sessions ended before it, which the resumed pipeline
			// will never see again — then drop anything at or after the cut:
			// the resumed pipeline re-raises those verdicts identically.
			cr.latest, cr.order = rs.latest, rs.order
			cr.pruneVerdictsAfter(restore)
		}
		cr.mu.Unlock()
	}

	cfg := stream.Config{
		Classifier:    d.cfg.Classifier,
		RecoverPanics: true,
		Restore:       restore,
		OnVerdict:     func(v stream.Verdict) { d.onVerdict(cr, v) },
		Metrics:       d.cfg.Metrics.Scope("daemon." + cr.spec.Name + ".stream"),
	}
	if cr.ckptPath != "" {
		cfg.CheckpointEvery = d.cfg.CheckpointEvery
		cfg.OnCheckpoint = func(c *stream.Checkpoint) { d.writeCheckpoint(cr, c) }
	}
	src = &teeSource{Src: src, sink: cr.extendTail}

	cr.setState(StateRunning)
	st, err := stream.Run(ctx, src, cfg)
	if st == nil {
		// Run refused to start: no verdict was raised and no stats exist.
		cr.mu.Lock()
		cr.restored = false
		cr.latest, cr.order = latest, order
		cr.mu.Unlock()
		return err
	}

	cr.mu.Lock()
	cr.stats = *st
	cr.health = live.Health()
	cr.now = st.End
	cr.mu.Unlock()
	if err != nil {
		return err
	}
	if ctx.Err() == nil {
		d.printFinals(cr)
	}
	return nil
}

// onVerdict records and prints one rolling verdict.
func (d *Daemon) onVerdict(cr *captureRun, v stream.Verdict) {
	cr.mu.Lock()
	prev, seen := cr.latest[v.Key]
	if !seen {
		cr.order = append(cr.order, v.Key)
	}
	changed := prev.App != v.App
	cr.latest[v.Key] = v
	cr.now = v.At
	cr.stats.Verdicts++
	cr.mu.Unlock()
	if changed || d.cfg.VerboseVerdicts {
		d.printf("[%s] t=%-8s cell=%d rnti=0x%04X app=%-14s confidence=%.2f windows=%d\n",
			cr.spec.Name, v.At.Truncate(time.Millisecond), v.Key.CellID, uint16(v.Key.RNTI),
			v.App, v.Confidence, v.Windows)
	}
}

// printFinals emits the per-user final verdicts after a clean completion,
// sorted by key for stable output.
func (d *Daemon) printFinals(cr *captureRun) {
	cr.mu.Lock()
	keys := make([]stream.Key, 0, len(cr.latest))
	for k := range cr.latest {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].CellID != keys[j].CellID {
			return keys[i].CellID < keys[j].CellID
		}
		return keys[i].RNTI < keys[j].RNTI
	})
	finals := make([]stream.Verdict, len(keys))
	for i, k := range keys {
		finals[i] = cr.latest[k]
	}
	st := cr.stats
	cr.mu.Unlock()
	for _, v := range finals {
		d.printf("[%s] final: cell=%d rnti=0x%04X app=%s confidence=%.2f windows=%d\n",
			cr.spec.Name, v.Key.CellID, uint16(v.Key.RNTI), v.App, v.Confidence, v.Windows)
	}
	d.printf("[%s] done: %d users, %d records -> %d windows -> %d verdicts, ran to t=%s\n",
		cr.spec.Name, st.Users, st.Records, st.Rows, st.Verdicts, st.End)
}

// pruneVerdictsAfter drops recorded verdicts newer than the checkpoint
// being restored: they will be re-raised identically by the resumed
// pipeline. Callers hold cr.mu.
func (cr *captureRun) pruneVerdictsAfter(c *stream.Checkpoint) {
	for k, v := range cr.latest {
		if v.At >= c.Now {
			delete(cr.latest, k)
		}
	}
	kept := cr.order[:0]
	for _, k := range cr.order {
		if _, ok := cr.latest[k]; ok {
			kept = append(kept, k)
		}
	}
	cr.order = kept
	cr.stats = c.Stats
}

// extendTail appends freshly captured records to the per-user tails and
// evicts everything older than tailSpan behind now.
func (cr *captureRun) extendTail(recs trace.Trace, now time.Duration) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	cr.now = now
	for _, r := range recs {
		k := stream.Key{CellID: r.CellID, RNTI: r.RNTI}
		cr.tail[k] = append(cr.tail[k], r)
	}
	cutoff := now - tailSpan
	if cutoff <= 0 {
		return
	}
	for k, t := range cr.tail {
		i := 0
		for i < len(t) && t[i].At < cutoff {
			i++
		}
		if i == len(t) {
			delete(cr.tail, k)
		} else if i > 0 {
			cr.tail[k] = append(t[:0:0], t[i:]...)
		}
	}
}

// setState updates a capture's lifecycle state.
func (cr *captureRun) setState(s State) {
	cr.mu.Lock()
	cr.state = s
	cr.mu.Unlock()
}

// printf writes one line to the verdict stream under the output lock.
func (d *Daemon) printf(format string, args ...any) {
	if d.cfg.Out == nil {
		return
	}
	d.outMu.Lock()
	defer d.outMu.Unlock()
	fmt.Fprintf(d.cfg.Out, format, args...)
}

// teeSource copies every slice a source produces to a sink before
// handing it to the pipeline.
type teeSource struct {
	Src  stream.Source
	sink func(recs trace.Trace, now time.Duration)
}

// Next implements stream.Source.
func (t *teeSource) Next(dst trace.Trace) (trace.Trace, time.Duration, bool) {
	base := len(dst)
	out, now, more := t.Src.Next(dst)
	t.sink(out[base:], now)
	return out, now, more
}
