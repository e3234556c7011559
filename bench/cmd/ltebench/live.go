package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"ltefp"
	"ltefp/internal/appmodel"
	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/capture"
	"ltefp/internal/lte/operator"
	"ltefp/internal/snapshot"
	"ltefp/internal/sniffer"
	"ltefp/internal/stream"
	"ltefp/internal/trace"
)

// checkpointEvery is lteattackd's default checkpoint period.
const checkpointEvery = 5 * time.Second

// live is the real-time attacker: one 60 s T-Mobile session at a time,
// captured and classified while it runs, checkpointed into memory.
type live struct {
	cfg *config
	clf *fingerprint.Classifier
}

// setup trains the model the sessions are classified with.
func (l *live) setup() error {
	ltefp.ResetCache()
	td, err := ltefp.CollectTraining(ltefp.TrainingOptions{
		Network:         "T-Mobile",
		SessionsPerApp:  4,
		SessionDuration: 30 * time.Second,
		Seed:            l.cfg.seed,
	})
	if err != nil {
		return err
	}
	fp, err := ltefp.TrainFingerprinter(td, l.cfg.seed)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := fp.Save(&buf); err != nil {
		return err
	}
	if l.clf, err = fingerprint.Load(&buf); err != nil {
		return err
	}
	// No op reads the training captures again.
	ltefp.ResetCache()
	return nil
}

func (l *live) close() error { return nil }

// scenario is session i: app i mod 9, seed advanced once per cycle of
// apps.
func (l *live) scenario(i int) capture.Scenario {
	apps := appmodel.Apps()
	return capture.Scenario{
		Seed:  l.cfg.seed + uint64(i/len(apps)),
		Cells: []capture.Cell{{ID: 1, Profile: operator.TMobile()}},
		Sessions: []capture.Session{{
			UE: "victim", CellID: 1, App: apps[i%len(apps)],
			Start: 500 * time.Millisecond, Duration: time.Minute,
		}},
		Sniffer:          sniffer.Config{CorruptProb: snifferCorruption},
		ApplyProfileLoss: true,
	}
}

// stampedSource remembers the host time at which each Next returned and
// the simulated time it reached, so verdicts can be timed from the moment
// their window's records were all delivered.
type stampedSource struct {
	stream.Source
	mu    sync.Mutex
	nows  []time.Duration
	hosts []time.Time
}

// Next implements stream.Source.
func (s *stampedSource) Next(dst trace.Trace) (trace.Trace, time.Duration, bool) {
	out, now, more := s.Source.Next(dst)
	t := time.Now()
	s.mu.Lock()
	s.nows = append(s.nows, now)
	s.hosts = append(s.hosts, t)
	s.mu.Unlock()
	return out, now, more
}

// reached returns the host time of the first Next return whose simulated
// time reached at.
func (s *stampedSource) reached(at time.Duration) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := sort.Search(len(s.nows), func(i int) bool { return s.nows[i] >= at })
	if i == len(s.nows) {
		return time.Time{}, false
	}
	return s.hosts[i], true
}

// verdictLog digests a pipeline's verdicts and checkpoints, in the order
// the verdict stage emits them, and times each verdict.
type verdictLog struct {
	d      *digester
	src    *stampedSource // nil: verdicts are not timed
	window time.Duration
	ms     []float64
	ckpt   int // checkpoint bytes
	err    error
}

func (v *verdictLog) verdict(x stream.Verdict) {
	t := time.Now()
	v.d.i64(int64(x.At))
	v.d.i64(int64(x.Key.CellID))
	v.d.u64(uint64(x.Key.RNTI))
	v.d.str(x.App)
	v.d.f64(x.Confidence)
	v.d.i64(int64(x.Windows))
	if v.src == nil {
		return
	}
	if from, ok := v.src.reached(x.At + v.window); ok {
		v.ms = append(v.ms, float64(t.Sub(from))/float64(time.Millisecond))
	}
}

func (v *verdictLog) checkpoint(cp *stream.Checkpoint) {
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf)
	if err == nil {
		err = cp.AppendTo(w)
	}
	if err == nil {
		err = w.Close()
	}
	if err != nil && v.err == nil {
		v.err = fmt.Errorf("checkpoint: %w", err)
	}
	v.d.bytes(buf.Bytes())
	v.ckpt += buf.Len()
}

func (v *verdictLog) digest(st *stream.Stats) [32]byte {
	for _, n := range []int64{st.Records, st.Rows, st.Predictions, st.Verdicts, st.RetrainSignals, int64(st.Users), int64(st.End)} {
		v.d.i64(n)
	}
	return v.d.sum()
}

func (l *live) config(log *verdictLog) stream.Config {
	return stream.Config{
		Classifier:      l.clf,
		CheckpointEvery: checkpointEvery,
		OnVerdict:       log.verdict,
		OnCheckpoint:    log.checkpoint,
	}
}

// checkStream enforces what a healthy live session looks like.
func checkStream(st *stream.Stats, end time.Duration) error {
	switch {
	case st.Verdicts == 0:
		return fmt.Errorf("no verdicts")
	case st.ShedRecords+st.ShedRows+st.ShedPredictions != 0:
		return fmt.Errorf("pipeline shed %d records, %d rows, %d predictions", st.ShedRecords, st.ShedRows, st.ShedPredictions)
	case st.OutOfOrder != 0:
		return fmt.Errorf("%d records out of order", st.OutOfOrder)
	case st.End != end:
		return fmt.Errorf("stream ended at %v, scenario at %v", st.End, end)
	}
	return nil
}

func (l *live) op(i int) (outcome, error) {
	lv, err := capture.NewLive(l.scenario(i))
	if err != nil {
		return outcome{}, err
	}
	src := &stampedSource{Source: &stream.LiveSource{Live: lv}}
	log := &verdictLog{d: newDigester(), src: src, window: l.clf.Window}
	st, err := stream.Run(context.Background(), src, l.config(log))
	lv.Close()
	if err != nil {
		return outcome{}, err
	}
	if log.err != nil {
		return outcome{}, log.err
	}
	out := outcome{digest: log.digest(st), latencyMS: log.ms}
	return out, checkStream(st, lv.End())
}

// tapLog times each window row from extraction (TapWindow) to the verdict
// whose newest window it is.
type tapLog struct {
	mu sync.Mutex
	at map[tapKey]time.Time
	ms []float64
}

type tapKey struct {
	key   stream.Key
	start time.Duration
}

func (t *tapLog) tap(k stream.Key, start time.Duration, _ []float64) {
	now := time.Now()
	t.mu.Lock()
	t.at[tapKey{k, start}] = now
	t.mu.Unlock()
}

func (t *tapLog) verdict(v stream.Verdict) {
	now := time.Now()
	k := tapKey{v.Key, v.At}
	t.mu.Lock()
	if from, ok := t.at[k]; ok {
		t.ms = append(t.ms, float64(now.Sub(from))/float64(time.Millisecond))
		delete(t.at, k)
	}
	t.mu.Unlock()
}

// replay runs the session through the cell replay, which serves as the
// pipeline's source, so the network and sniffer time inside each Next is
// split from the rest of stream.Run: the source waiting on the pipeline
// between calls, before the first and after the last while it starts and
// drains. The two must account for the op's time after the cell's set-up,
// within 5%.
func (l *live) replay(i int, tr *tracer) (outcome, error) {
	c, err := newCell(l.scenario(i), tr)
	if err != nil {
		return outcome{}, err
	}
	start := time.Now()
	log := &verdictLog{d: newDigester()}
	taps := &tapLog{at: make(map[tapKey]time.Time)}
	cfg := l.config(log)
	cfg.TapWindow = taps.tap
	cfg.OnVerdict = func(v stream.Verdict) {
		taps.verdict(v)
		log.verdict(v)
	}
	run := tr.begin("stream", "stream.Run")
	cfg.OnCheckpoint = func(cp *stream.Checkpoint) {
		t0 := time.Now()
		log.checkpoint(cp)
		tr.async(run, "snapshot", "snapshot.checkpoint", t0, time.Now())
	}
	runStart := time.Now()
	st, err := stream.Run(context.Background(), c, cfg)
	blocked := time.Since(runStart) - c.inNext
	tr.end(run)
	c.close()
	streamed := time.Since(start)
	if err != nil {
		return outcome{}, err
	}
	if log.err != nil {
		return outcome{}, log.err
	}
	tr.count("stream.source_s", c.inNext.Seconds())
	tr.count("stream.source_blocked_s", blocked.Seconds())
	tr.count("stream.rows", float64(st.Rows))
	tr.count("stream.verdicts", float64(st.Verdicts))
	tr.count("stream.shed", float64(st.ShedRecords+st.ShedRows+st.ShedPredictions))
	tr.count("snapshot.bytes", float64(log.ckpt))
	out := outcome{digest: log.digest(st), latencyMS: taps.ms}
	if err := checkStream(st, c.end); err != nil {
		return out, err
	}
	if d := streamed - c.inNext - blocked; d > streamed/20 {
		return out, fmt.Errorf("source time %v in Next + %v blocked is not the %v streamed", c.inNext, blocked, streamed)
	}
	return out, nil
}
