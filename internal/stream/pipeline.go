package stream

import (
	"context"
	"fmt"
	"sort"
	"time"

	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/features"
	"ltefp/internal/obs"
	"ltefp/internal/trace"
)

// recBatch is one source slice: the records drained plus the simulated
// time reached (all records with At < now are delivered, so the assembler
// may close windows ending at or before now). The record slice is owned by
// the batch and returned to the producer's freelist once assembled.
type recBatch struct {
	recs trace.Trace
	now  time.Duration
}

// rowBatch is the consumer's one reused row bundle. The assembler fills
// keys/starts/rows, the classifier writes apps, and the bundle is emptied
// once its verdicts are voted. rows point into the bundle's own flat
// arena, whose capacity is fixed at maxBatch×TotalDim up front so appends
// can never move rows already recorded.
type rowBatch struct {
	keys   []Key
	starts []time.Duration
	rows   [][]float64
	flat   []float64
	apps   []string
}

// stageMetrics is one stage's obs handles; all nil (no-op) when disabled.
type stageMetrics struct {
	items *obs.Counter
	ms    *obs.Histogram
}

func newStageMetrics(sc obs.Scope, items string) stageMetrics {
	return stageMetrics{
		items: sc.Counter(items),
		ms:    sc.Histogram("stage_ms", obs.LatencyBuckets()),
	}
}

// pipeline carries one Run's state. The producer goroutine owns src,
// recFree's receiving end and end; everything else belongs to the consumer,
// the caller's goroutine. Run reads end only after the producer has exited.
type pipeline struct {
	cfg   Config
	table *appTable
	// window and stride are the classifier's extraction geometry.
	window, stride time.Duration

	mSource   stageMetrics
	mAssemble stageMetrics
	mClassify stageMetrics
	mVerdict  stageMetrics
	activeKey *obs.Gauge
	outOfObs  *obs.Counter
	retrainC  *obs.Counter
	ckptC     *obs.Counter
	ckptMS    *obs.Histogram
	panicC    *obs.Counter

	// recFree recycles record slices from the consumer back to the
	// producer. It holds every slice that can be in flight, so steady state
	// the source path allocates nothing; a put to a full freelist drops
	// the slice rather than block.
	recFree chan trace.Trace
	// end is the simulated time the source reached (producer state).
	end time.Duration

	// Assembly state.
	users  map[Key]*features.Incremental
	order  []Key // sorted, for deterministic advance/flush iteration
	curKey Key
	emit   func(start time.Duration, row []float64)
	batch  rowBatch

	// clfScratch is the classifier's scratch, reused across every batch.
	clfScratch fingerprint.BatchScratch

	// Vote state, held on the pipeline so restore can prime it and a
	// checkpoint can read it.
	votes map[Key]*userVote
	slab  ringSlab

	// nextCkpt is the next simulated-time checkpoint boundary (meaningful
	// only when CheckpointEvery > 0).
	nextCkpt time.Duration

	st Stats
}

// Run executes the pipeline over the source until the source is exhausted
// or ctx is cancelled. A producer goroutine pulls the source and hands its
// slices over one bounded channel; the caller's goroutine assembles,
// classifies and votes them. On cancellation the producer stops, the
// slices already queued are processed before Run returns, and Run reports
// ctx's error alongside the stats gathered so far. With RecoverPanics set,
// a panic on either side aborts the pipeline cleanly instead of crashing
// the process: Run waits for the producer and returns the panic as an
// error.
func Run(ctx context.Context, src Source, cfg Config) (*Stats, error) {
	if cfg.Classifier == nil {
		return nil, fmt.Errorf("stream: Config.Classifier is required")
	}
	cfg = cfg.withDefaults()
	sc := cfg.Metrics
	p := &pipeline{
		cfg:       cfg,
		table:     newAppTable(),
		mSource:   newStageMetrics(sc.Scope("source"), "records"),
		mAssemble: newStageMetrics(sc.Scope("assemble"), "rows"),
		mClassify: newStageMetrics(sc.Scope("classify"), "predictions"),
		mVerdict:  newStageMetrics(sc.Scope("verdict"), "verdicts"),
		activeKey: sc.Scope("assemble").Gauge("active_keys"),
		outOfObs:  sc.Scope("assemble").Counter("out_of_order"),
		retrainC:  sc.Scope("verdict").Counter("retrain_signals"),
		ckptC:     sc.Scope("checkpoint").Counter("emitted"),
		ckptMS:    sc.Scope("checkpoint").Histogram("build_ms", obs.LatencyBuckets()),
		panicC:    sc.Scope("pipeline").Counter("stage_panics"),
		users:     make(map[Key]*features.Incremental),
		votes:     make(map[Key]*userVote),
		recFree:   make(chan trace.Trace, queueDepth+2),
		batch: rowBatch{
			keys:   make([]Key, 0, maxBatch),
			starts: make([]time.Duration, 0, maxBatch),
			rows:   make([][]float64, 0, maxBatch),
			flat:   make([]float64, 0, maxBatch*features.TotalDim),
			apps:   make([]string, 0, maxBatch),
		},
	}
	p.emit = p.emitRow
	p.window, p.stride = geometry(cfg.Classifier)
	p.slab = ringSlab{horizon: cfg.VoteHorizon, apps: len(p.table.names)}
	if cfg.CheckpointEvery > 0 {
		p.nextCkpt = cfg.CheckpointEvery
	}
	if cfg.Restore != nil {
		if err := p.restore(cfg.Restore); err != nil {
			return nil, err
		}
		if cfg.CheckpointEvery > 0 {
			p.nextCkpt = cfg.Restore.Now - cfg.Restore.Now%cfg.CheckpointEvery + cfg.CheckpointEvery
		}
	}
	p.end = p.st.End

	// A consumer panic cancels this internal context so the producer stops;
	// the caller's ctx error is still reported from the parent, never the
	// internal cancel.
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The producer closes recCh as it exits, after recording any panic of
	// its own, so once the consumer has seen the close srcErr is settled.
	recCh := make(chan recBatch, queueDepth)
	var srcErr error
	go func() {
		defer close(recCh)
		defer p.recoverInto(&srcErr, "source")
		p.produce(ctx, src, recCh)
	}()
	err := p.consume(recCh)
	if err != nil {
		cancel()
		for range recCh {
		}
	}
	if err == nil {
		err = srcErr
	}

	p.st.End = p.end
	p.settleStats()
	st := p.st
	if err != nil {
		return &st, err
	}
	return &st, parent.Err()
}

// recoverInto, deferred, turns a panic into *err when RecoverPanics is set
// (without it the panic crashes the process as usual).
func (p *pipeline) recoverInto(err *error, side string) {
	if !p.cfg.RecoverPanics {
		return
	}
	if r := recover(); r != nil {
		*err = fmt.Errorf("stream: %s panicked: %v", side, r)
		p.panicC.Inc()
	}
}

// putRecs returns a record slice to the producer's freelist (dropped if
// full).
func (p *pipeline) putRecs(recs trace.Trace) {
	if cap(recs) == 0 {
		return
	}
	select {
	case p.recFree <- recs:
	default:
	}
}

// produce pulls slices until the source is exhausted or the context is
// cancelled, each into a recycled record slice the batch then owns. It is
// the only code that watches ctx: the consumer ends by draining the closed
// channel, which guarantees queued work is finished, not abandoned.
func (p *pipeline) produce(ctx context.Context, src Source, out chan<- recBatch) {
	for {
		select {
		case <-ctx.Done():
			return
		default:
		}
		var recs trace.Trace
		select {
		case recs = <-p.recFree:
		default:
		}
		t := p.mSource.ms.Start()
		recs, now, more := src.Next(recs[:0])
		t.Stop()
		p.end = now
		select {
		case out <- recBatch{recs: recs, now: now}:
		case <-ctx.Done():
			return
		}
		if !more {
			return
		}
	}
}

// consume assembles, classifies and votes every batch the producer sends,
// cutting a checkpoint after each batch that crosses a boundary, and
// flushes every user's extractor once the channel closes. Rows are
// classified when the bundle fills, when the consumer has caught up with
// the producer, before a checkpoint, and at the end. Users are advanced
// and flushed in sorted key order so row order — and therefore every
// verdict and checkpoint — is deterministic for a given record sequence.
// A checkpoint is a consistent cut because it is built after exactly the
// batches sent before it have been processed.
func (p *pipeline) consume(in <-chan recBatch) (err error) {
	defer p.recoverInto(&err, "pipeline")
	for b := range in {
		p.st.Records += int64(len(b.recs))
		p.mSource.items.Add(int64(len(b.recs)))
		t := p.mAssemble.ms.Start()
		for _, r := range b.recs {
			k := Key{CellID: r.CellID, RNTI: r.RNTI}
			inc, ok := p.users[k]
			if !ok {
				inc = features.NewIncremental(p.window, p.stride)
				p.users[k] = inc
				i := sort.Search(len(p.order), func(i int) bool { return keyLess(k, p.order[i]) })
				p.order = append(p.order, Key{})
				copy(p.order[i+1:], p.order[i:])
				p.order[i] = k
				p.activeKey.Set(int64(len(p.order)))
			}
			p.curKey = k
			inc.Push(r, p.emit)
		}
		// The source guarantees all records with At < b.now are delivered:
		// close every window ending by then, idle users included.
		for _, k := range p.order {
			p.curKey = k
			p.users[k].AdvanceTo(b.now, p.emit)
		}
		t.Stop()
		p.putRecs(b.recs)
		// While more slices are queued, rows wait for them: the forest
		// walks each tree once per lane of rows, so one call over the
		// backlog costs far less than one call per slice, and batch
		// composition cannot change a prediction or the vote order. A
		// checkpoint needs every row before the cut voted.
		ckpt := p.cfg.CheckpointEvery > 0 && b.now >= p.nextCkpt
		if len(in) == 0 || ckpt {
			p.classify()
		}
		if ckpt {
			p.checkpoint(b.now)
			for p.nextCkpt <= b.now {
				p.nextCkpt += p.cfg.CheckpointEvery
			}
		}
	}
	for _, k := range p.order {
		p.curKey = k
		p.users[k].Flush(p.emit)
	}
	p.classify()
	return nil
}

func keyLess(a, b Key) bool {
	if a.CellID != b.CellID {
		return a.CellID < b.CellID
	}
	return a.RNTI < b.RNTI
}

// emitRow is the extractors' emit callback; curKey names the user the row
// belongs to. The extractor's row is scratch, so it is copied into the
// bundle's arena, whose capacity covers maxBatch rows: the bundle is
// classified as it fills, so the append never grows the arena in place.
func (p *pipeline) emitRow(start time.Duration, row []float64) {
	if p.cfg.TapWindow != nil {
		p.cfg.TapWindow(p.curKey, start, row)
	}
	b := &p.batch
	n := len(b.flat)
	b.flat = append(b.flat, row...)
	b.keys = append(b.keys, p.curKey)
	b.starts = append(b.starts, start)
	b.rows = append(b.rows, b.flat[n:len(b.flat):len(b.flat)])
	if len(b.rows) >= maxBatch {
		p.classify()
	}
}

// classify runs the forest hierarchy batched over the bundle's rows, votes
// each prediction, and empties the bundle. Batch composition cannot change
// predictions (batch prediction is documented bit-identical to per-row
// prediction), and predictions land in the bundle's own apps buffer via
// the reusable scratch, so the steady-state path allocates nothing.
func (p *pipeline) classify() {
	b := &p.batch
	if len(b.rows) == 0 {
		return
	}
	n := int64(len(b.rows))
	p.st.Rows += n
	p.mAssemble.items.Add(n)
	t := p.mClassify.ms.Start()
	b.apps = b.apps[:len(b.rows)]
	p.cfg.Classifier.PredictBatchInto(b.rows, b.apps, &p.clfScratch)
	t.Stop()
	p.st.Predictions += n
	p.mClassify.items.Add(n)
	p.vote(b)
	b.keys = b.keys[:0]
	b.starts = b.starts[:0]
	b.rows = b.rows[:0]
	b.flat = b.flat[:0]
	b.apps = b.apps[:0]
}

// userVote is one user's vote state, carved out of a ringSlab.
type userVote struct {
	ring  voteRing
	drift driftMonitor
}

// vote folds a classified bundle into rolling per-user majority votes,
// emitting one verdict per classified window once the user has enough
// history, and watching confidence for the retrain gate.
func (p *pipeline) vote(b *rowBatch) {
	t := p.mVerdict.ms.Start()
	for i, k := range b.keys {
		u, ok := p.votes[k]
		if !ok {
			u = p.slab.get()
			p.votes[k] = u
		}
		u.ring.push(p.table.index[b.apps[i]])
		if u.ring.fill < p.cfg.MinVerdictWindows {
			continue
		}
		app, conf := u.ring.majority()
		p.st.Verdicts++
		p.mVerdict.items.Inc()
		if p.cfg.OnVerdict != nil {
			p.cfg.OnVerdict(Verdict{
				At:         b.starts[i],
				Key:        k,
				App:        p.table.names[app],
				Confidence: conf,
				Windows:    u.ring.fill,
			})
		}
		if u.drift.observe(conf, u.ring.fill) {
			p.st.RetrainSignals++
			p.retrainC.Inc()
			if p.cfg.OnRetrain != nil {
				p.cfg.OnRetrain(RetrainSignal{
					At: b.starts[i], Key: k, Confidence: conf, Windows: u.ring.fill,
				})
			}
		}
	}
	t.Stop()
}
