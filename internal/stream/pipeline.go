package stream

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/features"
	"ltefp/internal/obs"
	"ltefp/internal/trace"
)

// recBatch is one source slice: the records drained plus the simulated
// time reached (all records with At < now are delivered, so the assembler
// may close windows ending at or before now). The record slice is owned by
// the batch and returned to the source's freelist once assembled. A batch
// with ckpt set is a checkpoint barrier: it carries no records and flows
// the partially-built checkpoint through every stage, each stage adding
// its own state as the barrier passes.
type recBatch struct {
	recs trace.Trace
	now  time.Duration
	ckpt *Checkpoint
}

// rowBatch is the pipeline's recyclable work bundle. The assembler fills
// keys/starts/rows, the classifier writes apps, and the verdict stage —
// the last reader — returns the whole bundle to the freelist. rows point
// into the bundle's own flat arena, whose capacity is fixed at
// maxBatch×TotalDim up front so appends can never move rows already
// recorded; that fixed ownership is what lets the bundle be reused instead
// of abandoned to the GC after every batch.
type rowBatch struct {
	keys   []Key
	starts []time.Duration
	rows   [][]float64
	flat   []float64
	apps   []string
	// ckpt marks a checkpoint barrier travelling the row path (the batch
	// then carries no rows). Cleared when the bundle is recycled.
	ckpt *Checkpoint
}

// stageMetrics is one stage's obs handles; all nil (no-op) when disabled.
type stageMetrics struct {
	batches *obs.Counter
	items   *obs.Counter
	shed    *obs.Counter
	depth   *obs.Gauge
	ms      *obs.Histogram
}

func newStageMetrics(sc obs.Scope, items, shed string) stageMetrics {
	return stageMetrics{
		batches: sc.Counter("batches"),
		items:   sc.Counter(items),
		shed:    sc.Counter(shed),
		depth:   sc.Gauge("queue_depth"),
		ms:      sc.Histogram("stage_ms", obs.LatencyBuckets()),
	}
}

// pipeline carries one Run's state. Each stats field is written by exactly
// one stage goroutine and read only after the WaitGroup settles.
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

	// Freelists recycle buffers against the flow of data: record slices
	// return assemble→source, row bundles verdict→assemble. Both are
	// buffered deep enough for every in-flight batch, so steady state the
	// per-batch path allocates nothing; non-blocking puts mean a full
	// freelist just drops the buffer rather than stalling a stage.
	recFree chan trace.Trace
	rowFree chan *rowBatch

	// assemble-stage state
	users  map[Key]*features.Incremental
	order  []Key // sorted, for deterministic advance/flush iteration
	curKey Key
	cur    *rowBatch

	// classify-stage scratch, reused across every batch.
	clfScratch fingerprint.BatchScratch

	// verdict-stage state. Held on the pipeline (instead of stage-local)
	// so restore can prime it before the stages start and the checkpoint
	// barrier can read it as it passes through.
	votes map[Key]*userVote
	slab  ringSlab

	// nextCkpt is the next simulated-time checkpoint boundary
	// (source-stage state, meaningful only when CheckpointEvery > 0).
	nextCkpt time.Duration

	// panicErr records the first recovered stage panic.
	panicMu  sync.Mutex
	panicErr error

	st Stats
}

// fail records the first recovered stage panic.
func (p *pipeline) fail(err error) {
	p.panicMu.Lock()
	if p.panicErr == nil {
		p.panicErr = err
	}
	p.panicMu.Unlock()
}

// failure returns the first recovered stage panic, nil if none.
func (p *pipeline) failure() error {
	p.panicMu.Lock()
	defer p.panicMu.Unlock()
	return p.panicErr
}

// Run executes the pipeline over the source until the source is exhausted
// or ctx is cancelled. On cancellation the stages drain their in-flight
// work before returning, and Run reports ctx's error alongside the stats
// gathered so far. With RecoverPanics set, a panicking stage aborts the
// pipeline cleanly instead of crashing the process: the remaining stages
// drain, and Run returns the panic as an error.
func Run(ctx context.Context, src Source, cfg Config) (*Stats, error) {
	if cfg.Classifier == nil {
		return nil, fmt.Errorf("stream: Config.Classifier is required")
	}
	cfg = cfg.withDefaults()
	sc := cfg.Metrics
	p := &pipeline{
		cfg:       cfg,
		table:     newAppTable(),
		mSource:   newStageMetrics(sc.Scope("source"), "records", "shed_records"),
		mAssemble: newStageMetrics(sc.Scope("assemble"), "rows", "shed_rows"),
		mClassify: newStageMetrics(sc.Scope("classify"), "predictions", "shed_predictions"),
		mVerdict:  newStageMetrics(sc.Scope("verdict"), "verdicts", "shed_verdicts"),
		activeKey: sc.Scope("assemble").Gauge("active_keys"),
		outOfObs:  sc.Scope("assemble").Counter("out_of_order"),
		retrainC:  sc.Scope("verdict").Counter("retrain_signals"),
		ckptC:     sc.Scope("checkpoint").Counter("emitted"),
		ckptMS:    sc.Scope("checkpoint").Histogram("build_ms", obs.LatencyBuckets()),
		panicC:    sc.Scope("pipeline").Counter("stage_panics"),
		users:     make(map[Key]*features.Incremental),
		votes:     make(map[Key]*userVote),
		recFree:   make(chan trace.Trace, queueDepth+2),
		rowFree:   make(chan *rowBatch, 2*queueDepth+4),
	}
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

	// A recovered stage panic cancels this internal context so the source
	// stops producing; the caller's ctx error is still reported from the
	// parent, never the internal cancel.
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	recCh := make(chan recBatch, queueDepth)
	rowCh := make(chan *rowBatch, queueDepth)
	predCh := make(chan *rowBatch, queueDepth)

	// guard wraps one stage goroutine: with RecoverPanics, a panic is
	// recorded, the source is cancelled, and the stage's abandoned input
	// is drained so upstream senders can finish — the pipeline winds down
	// instead of deadlocking (the stage's own deferred close has already
	// released its downstream).
	guard := func(stage string, drain func(), fn func()) {
		defer func() {
			if !cfg.RecoverPanics {
				return
			}
			if r := recover(); r != nil {
				p.fail(fmt.Errorf("stream: %s stage panicked: %v", stage, r))
				p.panicC.Inc()
				cancel()
				if drain != nil {
					drain()
				}
			}
		}()
		fn()
	}
	drainRecs := func() {
		for b := range recCh {
			p.putRecs(b.recs)
		}
	}
	drainRows := func(ch chan *rowBatch) func() {
		return func() {
			for b := range ch {
				p.putBatch(b)
			}
		}
	}

	var wg sync.WaitGroup
	wg.Add(4)
	go func() { defer wg.Done(); guard("source", nil, func() { p.sourceStage(ctx, src, recCh) }) }()
	go func() { defer wg.Done(); guard("assemble", drainRecs, func() { p.assembleStage(recCh, rowCh) }) }()
	go func() {
		defer wg.Done()
		guard("classify", drainRows(rowCh), func() { p.classifyStage(rowCh, predCh) })
	}()
	go func() { defer wg.Done(); guard("verdict", drainRows(predCh), func() { p.verdictStage(predCh) }) }()
	wg.Wait()

	p.st.Users = len(p.users)
	var ooo int64
	for _, inc := range p.users {
		ooo += inc.OutOfOrder
	}
	if delta := ooo - p.st.OutOfOrder; delta > 0 {
		p.outOfObs.Add(delta)
	}
	p.st.OutOfOrder = ooo
	st := p.st
	if err := p.failure(); err != nil {
		return &st, err
	}
	return &st, parent.Err()
}

// putRecs returns a record slice to the source freelist (dropped if full).
func (p *pipeline) putRecs(recs trace.Trace) {
	if cap(recs) == 0 {
		return
	}
	select {
	case p.recFree <- recs:
	default:
	}
}

// putBatch returns a row bundle to the freelist (dropped if full).
func (p *pipeline) putBatch(b *rowBatch) {
	select {
	case p.rowFree <- b:
	default:
	}
}

// getBatch pops a recycled bundle, or builds one with its full capacity —
// maxBatch rows and a maxBatch×TotalDim arena — so it never grows later.
func (p *pipeline) getBatch() *rowBatch {
	select {
	case b := <-p.rowFree:
		b.keys = b.keys[:0]
		b.starts = b.starts[:0]
		b.rows = b.rows[:0]
		b.flat = b.flat[:0]
		b.apps = b.apps[:0]
		b.ckpt = nil
		return b
	default:
	}
	return &rowBatch{
		keys:   make([]Key, 0, maxBatch),
		starts: make([]time.Duration, 0, maxBatch),
		rows:   make([][]float64, 0, maxBatch),
		flat:   make([]float64, 0, maxBatch*features.TotalDim),
		apps:   make([]string, 0, maxBatch),
	}
}

// sourceStage pulls slices until the source is exhausted or the context is
// cancelled. It is the only stage that watches ctx: downstream stages end
// by draining their closed input, which guarantees in-flight work is
// finished, not abandoned.
func (p *pipeline) sourceStage(ctx context.Context, src Source, out chan<- recBatch) {
	defer close(out)
	buf := make(trace.Trace, 0, 1024)
	for {
		select {
		case <-ctx.Done():
			return
		default:
		}
		t := p.mSource.ms.Start()
		next, now, more := src.Next(buf[:0])
		buf = next
		t.Stop()
		p.st.End = now
		b := recBatch{now: now}
		if len(buf) > 0 {
			var recs trace.Trace
			select {
			case recs = <-p.recFree:
			default:
			}
			b.recs = append(recs[:0], buf...)
		}
		p.mSource.batches.Inc()
		if p.cfg.Shed {
			select {
			case out <- b:
				p.st.Records += int64(len(b.recs))
				p.mSource.items.Add(int64(len(b.recs)))
			default:
				p.st.ShedRecords += int64(len(b.recs))
				p.mSource.shed.Add(int64(len(b.recs)))
				p.putRecs(b.recs)
			}
		} else {
			select {
			case out <- b:
				p.st.Records += int64(len(b.recs))
				p.mSource.items.Add(int64(len(b.recs)))
			case <-ctx.Done():
				return
			}
		}
		// Checkpoint barriers ride the same queue as data, so each stage
		// sees the barrier exactly after the last pre-barrier batch. The
		// barrier send always blocks (even in shed mode): a checkpoint is
		// a correctness artefact, not a load-shedding candidate, and the
		// consumers always drain, so the wait is bounded.
		if p.cfg.CheckpointEvery > 0 && b.now >= p.nextCkpt {
			c := &Checkpoint{Now: b.now}
			c.Stats.Records = p.st.Records
			c.Stats.ShedRecords = p.st.ShedRecords
			c.Stats.End = b.now
			select {
			case out <- recBatch{now: b.now, ckpt: c}:
			case <-ctx.Done():
				return
			}
			for p.nextCkpt <= b.now {
				p.nextCkpt += p.cfg.CheckpointEvery
			}
		}
		p.mSource.depth.Set(int64(len(out)))
		if !more {
			return
		}
	}
}

// assembleStage routes records to per-user incremental extractors and
// batches the emitted rows. Users are advanced and flushed in sorted key
// order so row order — and therefore every downstream artefact — is
// deterministic for a given record sequence.
func (p *pipeline) assembleStage(in <-chan recBatch, out chan<- *rowBatch) {
	defer close(out)
	p.cur = p.getBatch()
	emit := p.emitRow(out)
	for b := range in {
		if b.ckpt != nil {
			// Flush rows ahead of the barrier so everything assembled from
			// pre-barrier records reaches the verdict stage first, then
			// attach this stage's state and forward (always blocking — see
			// sourceStage).
			p.flushRows(out)
			p.captureUsers(b.ckpt)
			bb := p.getBatch()
			bb.ckpt = b.ckpt
			out <- bb
			p.mAssemble.depth.Set(int64(len(out)))
			continue
		}
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
			inc.Push(r, emit)
		}
		// The source guarantees all records with At < b.now are delivered:
		// close every window ending by then, idle users included.
		for _, k := range p.order {
			p.curKey = k
			p.users[k].AdvanceTo(b.now, emit)
		}
		t.Stop()
		p.putRecs(b.recs)
		p.flushRows(out)
	}
	for _, k := range p.order {
		p.curKey = k
		p.users[k].Flush(emit)
	}
	p.flushRows(out)
}

func keyLess(a, b Key) bool {
	if a.CellID != b.CellID {
		return a.CellID < b.CellID
	}
	return a.RNTI < b.RNTI
}

// emitRow returns the assembler's emit callback (built once per stage —
// it is called per row); curKey names the user the row belongs to. The
// extractor's row is scratch, so it is copied into the bundle's arena;
// the arena's capacity covers maxBatch rows, so the append can never grow
// it in place and move rows already recorded.
func (p *pipeline) emitRow(out chan<- *rowBatch) func(start time.Duration, row []float64) {
	return func(start time.Duration, row []float64) {
		if p.cfg.TapWindow != nil {
			p.cfg.TapWindow(p.curKey, start, row)
		}
		b := p.cur
		n := len(b.flat)
		b.flat = append(b.flat, row...)
		b.keys = append(b.keys, p.curKey)
		b.starts = append(b.starts, start)
		b.rows = append(b.rows, b.flat[n:len(b.flat):len(b.flat)])
		if len(b.rows) >= maxBatch {
			p.flushRows(out)
		}
	}
}

// flushRows ships the accumulated rows (if any) under the shed policy.
func (p *pipeline) flushRows(out chan<- *rowBatch) {
	if len(p.cur.rows) == 0 {
		return
	}
	b := p.cur
	// The row count is read before the send: once the bundle is handed
	// downstream it may be recycled (and reset) at any moment.
	n := int64(len(b.rows))
	p.mAssemble.batches.Inc()
	if p.cfg.Shed {
		select {
		case out <- b:
			p.st.Rows += n
			p.mAssemble.items.Add(n)
		default:
			p.st.ShedRows += n
			p.mAssemble.shed.Add(n)
			p.putBatch(b)
		}
	} else {
		out <- b
		p.st.Rows += n
		p.mAssemble.items.Add(n)
	}
	p.mAssemble.depth.Set(int64(len(out)))
	p.cur = p.getBatch()
}

// classifyStage runs the forest hierarchy batched over each row batch.
// Batch composition cannot change predictions (batch prediction is
// documented bit-identical to per-row prediction), so shed/batching policy
// upstream never alters what a surviving row classifies as. Predictions
// land in the bundle's own apps buffer via the reusable scratch, so the
// steady-state classify path allocates nothing.
func (p *pipeline) classifyStage(in <-chan *rowBatch, out chan<- *rowBatch) {
	defer close(out)
	for b := range in {
		if b.ckpt != nil {
			b.ckpt.Stats.Predictions = p.st.Predictions
			b.ckpt.Stats.ShedPredictions = p.st.ShedPredictions
			out <- b
			p.mClassify.depth.Set(int64(len(out)))
			continue
		}
		t := p.mClassify.ms.Start()
		b.apps = b.apps[:len(b.rows)]
		p.cfg.Classifier.PredictBatchInto(b.rows, b.apps, &p.clfScratch)
		t.Stop()
		// As above: count before the send, not after the handoff.
		n := int64(len(b.apps))
		p.mClassify.batches.Inc()
		if p.cfg.Shed {
			select {
			case out <- b:
				p.st.Predictions += n
				p.mClassify.items.Add(n)
			default:
				p.st.ShedPredictions += n
				p.mClassify.shed.Add(n)
				p.putBatch(b)
			}
		} else {
			out <- b
			p.st.Predictions += n
			p.mClassify.items.Add(n)
		}
		p.mClassify.depth.Set(int64(len(out)))
	}
}

// userVote is the verdict stage's per-user state, carved out of a ringSlab.
type userVote struct {
	ring  voteRing
	drift driftMonitor
}

// verdictStage folds predictions into rolling per-user majority votes,
// emitting one verdict per classified window once the user has enough
// history, and watching confidence for the retrain gate. As the bundle's
// last reader it returns each one to the freelist.
func (p *pipeline) verdictStage(in <-chan *rowBatch) {
	votes := p.votes
	for b := range in {
		if b.ckpt != nil {
			t := p.ckptMS.Start()
			p.captureVotes(b.ckpt)
			if p.cfg.OnCheckpoint != nil {
				p.cfg.OnCheckpoint(b.ckpt)
			}
			t.Stop()
			p.ckptC.Inc()
			p.putBatch(b)
			continue
		}
		t := p.mVerdict.ms.Start()
		for i, k := range b.keys {
			u, ok := votes[k]
			if !ok {
				u = p.slab.get()
				u.drift = driftMonitor{threshold: p.cfg.DriftThreshold}
				votes[k] = u
			}
			u.ring.push(p.table.index[b.apps[i]])
			if u.ring.fill < p.cfg.MinVerdictWindows {
				continue
			}
			app, conf := u.ring.majority()
			v := Verdict{
				At:         b.starts[i],
				Key:        k,
				App:        p.table.names[app],
				Confidence: conf,
				Windows:    u.ring.fill,
			}
			p.st.Verdicts++
			p.mVerdict.items.Inc()
			if p.cfg.OnVerdict != nil {
				p.cfg.OnVerdict(v)
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
		p.mVerdict.batches.Inc()
		t.Stop()
		p.putBatch(b)
	}
}
