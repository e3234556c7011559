package enb

import (
	"slices"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/lte/dci"
	"ltefp/internal/lte/phy"
	"ltefp/internal/lte/rnti"
	"ltefp/internal/lte/tbs"
	"ltefp/internal/sim"
)

// builder assembles the subframe currently being transmitted: it tracks
// PDCCH occupancy and the shared-channel resource budgets, and collects the
// resulting transmissions.
type builder struct {
	sf  *phy.Subframe
	now time.Duration
	cce *phy.CCEMap

	dlPRBLeft int
	ulPRBLeft int
	dlRB      int // next downlink RB start
	ulRB      int
}

// Tick advances the cell by one subframe and returns everything it put on
// the air. The caller must invoke Tick exactly once per TTI in time order.
// The returned subframe (including the DCI payload bytes it references) is
// scratch owned by the cell and is overwritten by the next Tick; observers
// needing it longer must deep-copy it.
func (c *Cell) Tick(now time.Duration) *phy.Subframe {
	c.sf.Index = int64(now / sim.TTI)
	c.sf.PDCCH = c.sf.PDCCH[:0]
	c.sf.RACH = c.sf.RACH[:0]
	c.cce.Reset(c.Profile.NCCE)
	c.arena = c.arena[:0]
	b := &c.bld
	*b = builder{
		sf:        &c.sf,
		now:       now,
		cce:       &c.cce,
		dlPRBLeft: c.Profile.PRBs,
		ulPRBLeft: c.Profile.PRBs,
	}
	c.cur = b
	// Control steps and the inactivity and refresh deadlines due by now
	// fire first; the deadlines are acted on after data scheduling, and
	// contexts released this tick leave c.order last.
	c.ctl.PopDue(now)
	c.applyShaping(b)
	c.scheduleData(b)
	c.fireIdle(now)
	c.fireRefresh(now)
	c.compactOrder()
	c.lastTick = b.sf.Index
	c.cur = nil
	if c.m.enabled {
		c.observeTick(b)
	}
	for _, o := range c.observers {
		o.Observe(c.ID, b.sf)
	}
	return b.sf
}

// observeTick records the scheduler summary: PRB utilisation per
// direction, aggregate queue depth, and connected-UE count. Called only
// when metrics are enabled, so the disabled path pays one boolean test.
// Sampled every 16th TTI: the simulator executes a TTI in well under a
// microsecond, so per-tick histogram updates would dominate enabled-mode
// cost, while 62 samples/s still characterises the distributions. The
// queue-depth and connected-UE gauges read the incrementally-maintained
// aggregates, so the sample costs the same on a 10,000-UE cell as on an
// empty one.
func (c *Cell) observeTick(b *builder) {
	c.m.tick++
	if c.m.tick&15 != 0 {
		return
	}
	total := float64(c.Profile.PRBs)
	c.m.prbUtilDL.Observe(float64(c.Profile.PRBs-b.dlPRBLeft) / total)
	c.m.prbUtilUL.Observe(float64(c.Profile.PRBs-b.ulPRBLeft) / total)
	c.m.queueDepth.Set(int64(c.aggQueue))
	c.m.connected.Set(int64(c.nConnected))
}

// control emits a control-plane message (RAR, msg3 grant, msg4, paging,
// security command, release, reconfiguration). Control uses the most
// robust MCS; if the PDCCH is congested this subframe, emission retries
// next subframe — state transitions attached by the caller have already
// happened, as they would at the RRC layer.
func (b *builder) control(c *Cell, r rnti.RNTI, f dci.Format, nprb int, plaintext any) {
	agg := 4
	if !r.IsC() {
		agg = 8
	}
	if _, ok := b.tryEmit(c, r, f, agg, nprb, 0, plaintext); !ok {
		c.m.pdcchBlocked.Inc()
		e := c.newRetry()
		e.r, e.f, e.nprb, e.plaintext = r, f, nprb, plaintext
		c.ctl.PushFirer(b.now+sim.TTI, e)
	}
}

// ctlRetry is the deferred re-emission of a PDCCH-blocked control
// message. On a congested population-scale cell these retries are the
// dominant event class — every blocked subframe re-queues them — so they
// are preallocated Firer payloads recycled through a per-cell free list
// instead of per-retry closures. PushFirer shares the queue's push-order
// tie-break with Push, so a pooled retry fires at exactly the position
// the closure did.
type ctlRetry struct {
	c         *Cell
	r         rnti.RNTI
	f         dci.Format
	nprb      int
	plaintext any
}

// Fire re-attempts the blocked emission in the subframe now under
// assembly. The payload recycles itself first: if the PDCCH is still
// congested, control pops it straight back off the free list for the
// next retry, so a message blocked for N subframes costs one allocation
// total, not N.
func (e *ctlRetry) Fire() {
	c, r, f, nprb, plaintext := e.c, e.r, e.f, e.nprb, e.plaintext
	e.plaintext = nil
	c.retryFree = append(c.retryFree, e)
	c.cur.control(c, r, f, nprb, plaintext)
}

// newRetry returns a blank retry payload, recycling a fired one when
// possible.
func (c *Cell) newRetry() *ctlRetry {
	if n := len(c.retryFree); n > 0 {
		e := c.retryFree[n-1]
		c.retryFree[n-1] = nil
		c.retryFree = c.retryFree[:n-1]
		return e
	}
	return &ctlRetry{c: c}
}

// tryEmit places one DCI on the PDCCH and charges the shared-channel
// budget. It returns the scheduled transport block size in bytes.
func (b *builder) tryEmit(c *Cell, r rnti.RNTI, f dci.Format, agg, nprb, mcs int, plaintext any) (tbBytes int, ok bool) {
	budget := &b.dlPRBLeft
	rbNext := &b.dlRB
	if f == dci.Format0 {
		budget = &b.ulPRBLeft
		rbNext = &b.ulRB
	}
	if nprb < 1 || nprb > *budget {
		return 0, false
	}
	firstCCE, placed := b.cce.Place(r, agg, b.sf.Index)
	if !placed {
		return 0, false
	}
	rbStart := *rbNext
	if rbStart+nprb > c.Profile.PRBs {
		rbStart = 0
	}
	msg := dci.Message{
		Format:  f,
		RBStart: rbStart,
		NPRB:    nprb,
		MCS:     mcs,
		HARQ:    int(b.sf.Index) % 8,
		NDI:     true,
		TPC:     1,
	}
	// Pack into the cell-owned payload arena: slices into it stay valid for
	// the rest of the tick even if a later append regrows the arena, and
	// the whole arena is reused next tick.
	off := len(c.arena)
	for i := 0; i < dci.PayloadLen; i++ {
		c.arena = append(c.arena, 0)
	}
	payload := c.arena[off : off+dci.PayloadLen : off+dci.PayloadLen]
	if err := msg.PackInto(payload); err != nil {
		// A packing failure is a scheduler bug, not a runtime condition.
		panic("enb: packing DCI: " + err.Error())
	}
	itbs, _, err := tbs.ForMCS(mcs)
	if err != nil {
		panic("enb: MCS from scheduler out of range: " + err.Error())
	}
	tbBytes, err = tbs.Bytes(itbs, nprb)
	if err != nil {
		panic("enb: TBS lookup: " + err.Error())
	}
	b.sf.PDCCH = append(b.sf.PDCCH, phy.Transmission{
		Payload:   payload,
		MaskedCRC: attachCRC(payload, r),
		AggLevel:  agg,
		FirstCCE:  firstCCE,
		Plaintext: plaintext,
	})
	*budget -= nprb
	*rbNext = rbStart + nprb
	return tbBytes, true
}

// applyShaping runs the traffic-shaping defenses that inject bytes ahead
// of data scheduling: per-frame dummy bursts and the constant-rate
// downlink top-up. Both walk every connected context in c.order position,
// active or parked, so their RNG draws and queue mutations sequence by
// scheduling-table position. With both defenses off this costs two branch
// tests per tick.
func (c *Cell) applyShaping(b *builder) {
	p := &c.Profile
	if p.DummyBurstProb > 0 && b.sf.Index%10 == 0 {
		for _, ctx := range c.order {
			if ctx.state != ctxConnected {
				continue
			}
			if !c.rng.Bool(p.DummyBurstProb) {
				continue
			}
			n := appmodel.DummyBurstBytes(c.rng, p.DummyBurstMaxBytes)
			ctx.dlQueue += n
			c.aggQueue += n
			c.ringAdd(ctx)
			c.defense.DummyBytes += int64(n)
			c.m.dummyBytes.Add(int64(n))
		}
	}
	if period := int64(p.ConstantRatePeriodTTI); period > 0 && b.sf.Index%period == 0 {
		for _, ctx := range c.order {
			if ctx.state != ctxConnected {
				continue
			}
			deficit := p.ConstantRateBytes - ctx.dlQueue
			if deficit <= 0 {
				continue
			}
			ctx.dlQueue += deficit
			c.aggQueue += deficit
			c.ringAdd(ctx)
			c.defense.CoverBytes += int64(deficit)
			c.m.coverBytes.Add(int64(deficit))
		}
	}
}

// scheduleData runs the per-TTI data scheduler: a round-robin rotation in
// c.order position from rrPtr, granting downlink assignments (format 1A)
// and uplink grants (format 0) against the remaining PRB budget; rrPtr
// then advances one position, wrapping at len(c.order). Only contexts
// with pending bytes can be granted, so it visits just the active ring —
// sorted by c.order position, so splitting it at rrPtr yields the
// rotation — then prunes entries the visits drained. Contexts whose
// scheduling interval has not yet come up stay in the ring.
func (c *Cell) scheduleData(b *builder) {
	n := len(c.order)
	if n == 0 {
		return
	}
	if a := c.active; len(a) > 0 {
		i, j := 0, len(a)
		for i < j {
			h := int(uint(i+j) >> 1)
			if a[h].ordIdx < c.rrPtr {
				i = h + 1
			} else {
				j = h
			}
		}
		for _, ctx := range a[i:] {
			c.visitData(b, ctx)
		}
		for _, ctx := range a[:i] {
			c.visitData(b, ctx)
		}
	}
	c.rrPtr++
	if c.rrPtr == n {
		c.rrPtr = 0
	}
	kept := c.active[:0]
	for _, ctx := range c.active {
		if ctx.dlQueue > 0 || ctx.ulQueue > 0 {
			kept = append(kept, ctx)
		} else {
			ctx.inRing = false
		}
	}
	for i := len(kept); i < len(c.active); i++ {
		c.active[i] = nil
	}
	c.active = kept
}

// visitData gives one context its round-robin turn: a downlink grant,
// then an uplink grant, for each direction with bytes queued, its
// scheduling interval come up and PRBs left. Before sizing, the UE's
// channel is caught up to the epochs before this subframe (see cqiLimit),
// and both directions share the resulting MCS.
func (c *Cell) visitData(b *builder, ctx *ueCtx) {
	if ctx.state != ctxConnected {
		return
	}
	wantDL := ctx.dlQueue > 0 && b.sf.Index >= ctx.nextDLSF && b.dlPRBLeft > 0
	wantUL := ctx.ulQueue > 0 && b.sf.Index >= ctx.nextULSF && b.ulPRBLeft > 0
	if !wantDL && !wantUL {
		return
	}
	ctx.ue.CatchUpCQI(b.sf.Index - 1)
	mcs := ctx.ue.MCS()
	p := &c.Profile
	gotGrant := false
	if wantDL {
		if granted := c.grant(b, ctx, dci.Format1A, mcs, ctx.dlQueue, b.dlPRBLeft); granted > 0 {
			if granted > ctx.dlQueue {
				granted = ctx.dlQueue
			}
			ctx.dlQueue -= granted
			c.aggQueue -= granted
			ctx.lastActivity = b.now
			// Contention jitter delays the start of service for a new
			// burst; a backlogged UE keeps its scheduling cadence, as
			// under any work-conserving scheduler.
			ctx.nextDLSF = b.sf.Index + int64(p.SchedPeriodTTI)
			if ctx.dlQueue == 0 {
				ctx.nextDLSF += c.jitter()
			}
			gotGrant = true
			c.grantsDL++
			c.bytesDL += int64(granted)
			c.m.grantsDL.Inc()
		}
	}
	if wantUL {
		if granted := c.grant(b, ctx, dci.Format0, mcs, ctx.ulQueue, b.ulPRBLeft); granted > 0 {
			if granted > ctx.ulQueue {
				granted = ctx.ulQueue
			}
			ctx.ulQueue -= granted
			c.aggQueue -= granted
			ctx.lastActivity = b.now
			ctx.nextULSF = b.sf.Index + int64(p.SchedPeriodTTI)
			if ctx.ulQueue == 0 {
				ctx.nextULSF += c.jitter()
			}
			gotGrant = true
			c.grantsUL++
			c.bytesUL += int64(granted)
			c.m.grantsUL.Inc()
		}
	}
	if gotGrant && ctx.dlQueue == 0 && ctx.ulQueue == 0 {
		c.armIdle(ctx)
	}
}

// grant sizes and emits one data grant, returning the transport block size
// in bytes (0 when the PDCCH or PRB budget blocked it).
func (c *Cell) grant(b *builder, ctx *ueCtx, f dci.Format, mcs, queued, prbLeft int) int {
	p := &c.Profile
	want := queued
	if p.PaddingProb > 0 && c.rng.Bool(p.PaddingProb) {
		// Over-grants scale with the payload (a scheduler rounds a grant
		// up within its allocation granularity), bounded by the profile's
		// absolute cap.
		pad := queued / 3
		if pad < 24 {
			pad = 24
		}
		if pad > p.PaddingMaxBytes {
			pad = p.PaddingMaxBytes
		}
		want += c.rng.IntN(pad + 1)
		c.m.paddingEvents.Inc()
	}
	morphBase := want
	if p.PadBuckets {
		want = padBucket(want)
	}
	if q := p.GrantQuantum; q > 0 {
		// Quantize the grant onto a coarse byte lattice with one quantum of
		// random slack: all payloads collapse onto few distinct transport
		// block targets, and the random step keeps the lattice position from
		// leaking the payload's residue.
		steps := (want + q - 1) / q
		if steps < 1 {
			steps = 1
		}
		steps += c.rng.IntN(2)
		want = steps * q
	}
	// Defense cost accounting charges only the morphing/quantization
	// inflation, not the baseline over-granting (PaddingProb, TBS
	// granularity, link-adaptation slack) an undefended network shows.
	if over := int64(want - morphBase); over > 0 {
		c.defense.PadBytes += over
		c.m.padBytes.Add(over)
	}
	itbs, _, err := tbs.ForMCS(mcs)
	if err != nil {
		panic("enb: UE MCS out of range: " + err.Error())
	}
	maxPRB := p.MaxPRBPerGrant
	if prbLeft < maxPRB {
		maxPRB = prbLeft
	}
	nprb, _ := tbs.PRBsFor(itbs, want, maxPRB)
	// Link adaptation tightens the grant: with the PRB count fixed, the
	// MCS is lowered while the transport block still fits the payload, so
	// small packets get small transport blocks instead of a padded block
	// at the channel's full rate (srsENB behaves the same way). This is
	// what makes TBS track payload size — the leak the paper exploits.
	ueITBS := itbs
	for itbs > 0 {
		smaller, err := tbs.Bytes(itbs-1, nprb)
		if err != nil || smaller < want {
			break
		}
		itbs--
	}
	// Production schedulers do not size grants exactly: they leave up to
	// LinkAdaptSlack MCS steps of headroom (never exceeding what the
	// channel supports), re-blurring the TBS↔payload correspondence.
	if s := p.LinkAdaptSlack; s > 0 {
		itbs += c.rng.IntN(s + 1)
		if itbs > ueITBS {
			itbs = ueITBS
		}
	}
	mcs = mcsForITBS(itbs)
	tb, ok := b.tryEmit(c, ctx.rnti, f, aggForCQI(ctx.ue.CQI), nprb, mcs, nil)
	if !ok {
		c.m.pdcchBlocked.Inc()
		return 0
	}
	return tb
}

// padBucket morphs a payload size up to the next traffic-morphing bucket:
// powers of two from 128 bytes, then 16 KiB multiples for bulk transfers.
// Collapsing sizes onto a few buckets is what destroys the size feature.
func padBucket(want int) int {
	if want <= 128 {
		return 128
	}
	if want <= 64*1024 {
		b := 128
		for b < want {
			b *= 2
		}
		return b
	}
	const step = 16 * 1024
	return (want + step - 1) / step * step
}

// jitter draws the grant-delay jitter of this operator.
func (c *Cell) jitter() int64 {
	j := c.Profile.GrantJitterTTI
	if j <= 0 {
		return 0
	}
	return int64(c.rng.IntN(j + 1))
}

// mcsForITBS inverts the MCS → I_TBS mapping (TS 36.213 Table 7.1.7.1-1),
// picking the lowest-order modulation that reaches the index.
func mcsForITBS(itbs int) int {
	switch {
	case itbs <= 9:
		return itbs
	case itbs <= 15:
		return itbs + 1
	default:
		return itbs + 2
	}
}

// aggForCQI picks the PDCCH aggregation level link adaptation would: worse
// channels need more CCEs.
func aggForCQI(cqi float64) int {
	switch {
	case cqi >= 12:
		return 1
	case cqi >= 9:
		return 2
	case cqi >= 6:
		return 4
	default:
		return 8
	}
}

// refreshOne gives one connected context a fresh C-RNTI via an encrypted
// reconfiguration, reporting false when the RNTI space is exhausted (the
// old identity is kept for this round). This is the paper's §VIII-B
// countermeasure: a passive observer sees the old RNTI fall silent and an
// unlinkable new one appear, resetting its tracking.
func (c *Cell) refreshOne(ctx *ueCtx, now time.Duration) bool {
	fresh, err := c.alloc.Allocate()
	if err != nil {
		return false
	}
	// Encrypted RRCConnectionReconfiguration on the old identity.
	c.cur.control(c, ctx.rnti, dci.Format1A, 1, nil)
	c.alloc.Release(ctx.rnti)
	ctx.rnti = fresh
	ctx.rntiAge = now
	ctx.ue.RNTI = fresh
	c.m.rntiRefreshes.Inc()
	return true
}

// deadlineKind says what a deadline is for.
type deadlineKind uint8

const (
	deadlineIdle    deadlineKind = iota // inactivity-release check
	deadlineRefresh                     // C-RNTI refresh occasion
)

// deadline is an inactivity-release or C-RNTI refresh deadline parked on
// the cell's control queue at its subframe edge. Deadlines are hints, not
// commands: the consumer re-validates against live context state when
// one fires, so arming never needs to find and cancel a stale deadline —
// the stale one just fails validation. The generation number guards the
// harder staleness: a context released and recycled for a different UE
// before the deadline came up. Payloads are recycled through a per-cell
// free list, so arming does not allocate once the pool has grown to the
// peak number pending.
type deadline struct {
	c    *Cell
	ctx  *ueCtx
	gen  uint32
	kind deadlineKind
	at   int64 // subframe index
}

// Fire collects the deadline for this tick's fireIdle or fireRefresh,
// which act on it after data scheduling.
func (d *deadline) Fire() {
	if d.kind == deadlineIdle {
		d.c.dueIdle = append(d.c.dueIdle, d)
	} else {
		d.c.dueRefresh = append(d.c.dueRefresh, d)
	}
}

// arm parks a deadline for ctx's current tenancy at subframe at. A
// deadline already past — only BeginHandover arms between ticks — fires
// at the next tick, as the queue fires every overdue event. An empty pool
// is refilled a block at a time: every resident connection holds a
// pending deadline, so a population-scale cell needs thousands.
func (c *Cell) arm(ctx *ueCtx, kind deadlineKind, at int64) {
	if len(c.deadlineFree) == 0 {
		blk := make([]deadline, 256)
		for i := range blk {
			blk[i].c = c
			c.deadlineFree = append(c.deadlineFree, &blk[i])
		}
	}
	n := len(c.deadlineFree) - 1
	d := c.deadlineFree[n]
	c.deadlineFree[n] = nil
	c.deadlineFree = c.deadlineFree[:n]
	d.ctx, d.gen, d.kind, d.at = ctx, ctx.gen, kind, at
	c.ctl.PushFirer(time.Duration(at)*sim.TTI, d)
}

// recycle returns a fired deadline's fields and puts the payload back on
// the free list.
func (c *Cell) recycle(d *deadline) (ctx *ueCtx, gen uint32, at int64) {
	ctx, gen, at = d.ctx, d.gen, d.at
	c.deadlineFree = append(c.deadlineFree, d)
	return ctx, gen, at
}

// byOrder orders fired deadlines by their context's position in c.order.
func byOrder(a, b *deadline) int { return a.ctx.ordIdx - b.ctx.ordIdx }

// fireRefresh processes the refresh occasions that came due this tick.
// Each is re-validated — the context is still the armed tenancy, still
// connected, and its C-RNTI is at least RNTIRefreshEvery old — then acted
// on in c.order position, so reconfigurations and allocator draws follow
// the scheduling table's order. A refresh arms the next occasion; an
// exhausted RNTI space retries 32 subframes later.
func (c *Cell) fireRefresh(now time.Duration) {
	due := c.dueRefresh
	if len(due) == 0 {
		return
	}
	slices.SortFunc(due, byOrder)
	for _, d := range due {
		ctx, gen, at := c.recycle(d)
		if gen != ctx.gen || ctx.state != ctxConnected {
			continue
		}
		if now-ctx.rntiAge < c.Profile.RNTIRefreshEvery {
			continue // refreshed since arming; the newer deadline covers it
		}
		if c.refreshOne(ctx, now) {
			c.armRefresh(ctx)
		} else {
			c.arm(ctx, deadlineRefresh, at+32) // retry next occasion
		}
	}
	c.dueRefresh = due[:0]
}

// fireIdle processes the inactivity deadlines that came due this tick —
// the releases behind the RNTI churn the paper's tracker must survive. A
// deadline is a hint, not a command: the release rule is re-validated in
// full — connected, both queues empty, and now-lastActivity >=
// InactivityTimeout — and contexts are released in c.order position. A
// fired deadline ends its tenancy's one-deadline chain; if the context is
// merely not idle long enough (activity since arming moved the deadline),
// the chain re-arms at the new deadline, and if it is busy, the ring
// sweep re-arms when the queues next drain.
func (c *Cell) fireIdle(now time.Duration) {
	due := c.dueIdle
	if len(due) == 0 {
		return
	}
	slices.SortFunc(due, byOrder)
	for _, d := range due {
		ctx, gen, _ := c.recycle(d)
		if gen != ctx.gen {
			continue // stale tenancy: the recycled context owns its own chain
		}
		ctx.idleArmed = false
		if ctx.state != ctxConnected {
			continue
		}
		if ctx.dlQueue > 0 || ctx.ulQueue > 0 {
			continue
		}
		if now-ctx.lastActivity < c.Profile.InactivityTimeout {
			c.armIdle(ctx)
			continue
		}
		c.release(ctx, true)
	}
	c.dueIdle = due[:0]
}

// compactOrder drops released contexts from the scheduling order and
// recycles their allocations. Survivors keep their relative order and
// take their new positions as ordIdx, and rrPtr is reduced modulo the new
// length, so the rotation resumes at the same position number. It runs
// only on ticks that released something, shifting from the lowest
// released slot.
func (c *Cell) compactOrder() {
	if len(c.pendingRelease) == 0 {
		return
	}
	first := c.pendingRelease[0].ordIdx
	for _, ctx := range c.pendingRelease[1:] {
		if ctx.ordIdx < first {
			first = ctx.ordIdx
		}
	}
	kept := first
	for i := first; i < len(c.order); i++ {
		ctx := c.order[i]
		if ctx.state == ctxReleased {
			continue
		}
		c.order[kept] = ctx
		ctx.ordIdx = kept
		kept++
	}
	for i := kept; i < len(c.order); i++ {
		c.order[i] = nil
	}
	c.order = c.order[:kept]
	if len(c.order) == 0 {
		c.rrPtr = 0
	} else {
		c.rrPtr %= len(c.order)
	}
	for _, ctx := range c.pendingRelease {
		g := ctx.gen
		*ctx = ueCtx{gen: g + 1}
		c.free = append(c.free, ctx)
	}
	c.pendingRelease = c.pendingRelease[:0]
}
