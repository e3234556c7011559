// Package enb models an eNodeB cell: RNTI management, the random-access
// and paging procedures, per-TTI resource scheduling, inactivity release,
// and handover. Its Tick method assembles, for every 1 ms subframe, the
// exact set of PDCCH transmissions a passive observer could capture — which
// makes this package the ground truth the sniffer package is graded
// against.
package enb

import (
	"fmt"
	"time"

	"ltefp/internal/lte/dci"
	"ltefp/internal/lte/epc"
	"ltefp/internal/lte/operator"
	"ltefp/internal/lte/phy"
	"ltefp/internal/lte/rnti"
	"ltefp/internal/lte/rrc"
	"ltefp/internal/lte/ue"
	"ltefp/internal/obs"
	"ltefp/internal/sim"
)

// Observer receives every subframe a cell transmits. Sniffers implement
// this; they must not retain the subframe past the call.
type Observer interface {
	Observe(cellID int, sf *phy.Subframe)
}

// HandoverSink receives the source side's hand-off when a handover release
// completes: the departing UE, the target cell, and the byte queues to
// carry over. The simulation fabric installs a sink that forwards the
// admission to the target cell at the next synchronization point, so the
// source cell never calls into another cell directly (cells may be
// stepping on different workers).
type HandoverSink func(u *ue.UE, targetCellID, dlQueue, ulQueue int)

// ctxState tracks the radio-bearer lifecycle of one UE context.
type ctxState int

const (
	ctxAccess ctxState = iota + 1 // random access in progress
	ctxConnected
	ctxReleased
)

// ueCtx is the cell-side context of one UE with an allocated C-RNTI.
type ueCtx struct {
	ue    *ue.UE
	rnti  rnti.RNTI
	state ctxState

	dlQueue int // bytes awaiting downlink delivery
	ulQueue int // bytes granted-for awaiting uplink delivery

	lastActivity time.Duration
	rntiAge      time.Duration // when the current C-RNTI was assigned
	nextDLSF     int64         // earliest subframe of the next DL grant
	nextULSF     int64
	harq         int
	secured      bool // AS security active: no more plaintext

	// ordIdx is this context's current position in c.order, kept in step
	// by enroll and compaction. The active ring is sorted by it, and every
	// per-context order rule (round-robin rotation, deadline processing)
	// is defined by it.
	ordIdx int
	// inRing marks membership in c.active.
	inRing bool
	// idleArmed marks a pending inactivity deadline on the control queue
	// for this tenancy, keeping the chain at one deadline per context:
	// without it, every queue drain of a chatty UE would park another
	// soon-to-be-stale deadline on the queue.
	idleArmed bool
	// gen counts tenancies of this (free-list-recycled) allocation.
	// Deferred closures and deadlines capture the generation they were
	// created under and go inert if the context has since been recycled
	// for a different UE.
	gen uint32
}

// Cell is one eNodeB cell.
type Cell struct {
	// ID is the cell identifier (also the paper's "cell zone").
	ID int
	// Profile is the operator configuration shaping this cell.
	Profile operator.Profile

	core  *epc.Core
	rng   *sim.RNG
	alloc *rnti.Allocator

	// byUE finds a UE's context. Contexts are looked up only by UE: a
	// context carries its own C-RNTI, and the allocator's in-use set is
	// the cell's only RNTI-keyed state.
	byUE  map[*ue.UE]*ueCtx
	order []*ueCtx // deterministic scheduling order
	rrPtr int      // round-robin rotation pointer

	// active is the active-set scheduling ring: the contexts in connected
	// state with nonzero queues, sorted by ordIdx. scheduleData visits
	// only these, so a TTI costs O(active UEs) while thousands of parked
	// connections cost nothing.
	active []*ueCtx
	// free recycles released ueCtx allocations (their gen bumped) so
	// population-scale churn does not allocate per connection.
	free []*ueCtx
	// pendingRelease lists contexts released since the last compaction;
	// compaction scans only from the lowest released slot and skips
	// entirely on ticks that released nothing.
	pendingRelease []*ueCtx
	// dueIdle and dueRefresh collect the inactivity and refresh deadlines
	// that fired during this tick's ctl.PopDue; fireIdle and fireRefresh
	// act on them after data scheduling (see deadline in sched.go).
	dueIdle, dueRefresh []*deadline
	// deadlineFree recycles fired deadline payloads.
	deadlineFree []*deadline
	// lastTick is the subframe index of the most recent Tick, -1 before
	// the first; serial-phase code uses it to bound lazy CQI catch-up.
	lastTick int64

	// dlPending buffers downlink bytes for idle UEs until paging brings
	// them back to connected mode.
	dlPending map[*ue.UE]int

	// pagingAt collects the idle UEs to be paged at each upcoming paging
	// occasion, keyed by the occasion's subframe index. The first UE queued
	// for an occasion schedules one flush closure; every UE queued for the
	// same occasion shares it, so the occasion emits batched paging
	// messages instead of one PRNTI message per UE.
	pagingAt map[int64][]*ue.UE

	// camped registers every UE currently parked on this cell. Deferred
	// control closures (paging occasions, paging responses) consult it
	// before touching a UE: a UE that re-camped elsewhere since the closure
	// was scheduled now belongs to another cell — possibly stepping on a
	// different worker — and must not be read from here.
	camped map[*ue.UE]bool

	// hoSink, when set, receives handover admissions instead of the source
	// cell calling the target directly (see HandoverSink).
	hoSink HandoverSink

	ctl sim.Queue // timed control-procedure steps
	// retryFree recycles fired ctlRetry payloads so PDCCH-congestion
	// retries — the hot event class on a loaded cell — do not allocate
	// per blocked subframe (see ctlRetry in sched.go).
	retryFree []*ctlRetry
	observers []Observer

	cur *builder // subframe under assembly; valid only inside Tick

	// Per-TTI scratch, reused across Ticks so steady-state subframe
	// assembly does not allocate: the subframe returned by Tick, the CCE
	// occupancy map, the builder, and the arena backing DCI payloads. All
	// of it is invalidated by the next Tick, which is why observers must
	// not retain subframes.
	sf    phy.Subframe
	cce   phy.CCEMap
	bld   builder
	arena []byte

	// Incremental aggregates over c.order, maintained at every queue
	// mutation and state transition so observeTick and Connected never walk
	// the context table: aggQueue is the summed dl+ul backlog of every
	// context still in the scheduling order, nConnected the number of
	// contexts in connected state.
	aggQueue   int
	nConnected int

	// stats
	grantsDL, grantsUL int64
	bytesDL, bytesUL   int64

	// defense accumulates the measured overhead of every enabled defense
	// mechanism. Always maintained (plain integer adds on paths that
	// already mutate the same cache lines), so overhead reporting never
	// perturbs scheduling output.
	defense DefenseStats

	m cellMetrics
}

// DefenseStats are a cell's cumulative defense-overhead counters: the
// byte cost of padding-style defenses (split by mechanism), and the
// paging channel's message/record/latency tallies from which smart
// paging's PDCCH savings and added delay are computed.
type DefenseStats struct {
	// PadBytes counts downlink+uplink bytes the bucket-morphing and
	// grant-quantization defenses inflated grants by, beyond the
	// scheduler's baseline sizing (baseline over-granting and TBS
	// granularity are not charged — a defenseless cell reports zero).
	PadBytes int64
	// DummyBytes counts bytes injected by the dummy-burst defense.
	DummyBytes int64
	// CoverBytes counts bytes injected by the constant-rate top-up.
	CoverBytes int64
	// PagingMessages and PagingRecords count emitted paging messages and
	// the records they carried; their ratio is the batching factor.
	PagingMessages int64
	PagingRecords  int64
	// PagingDelayTTIs sums, over all paging requests, the subframes
	// between downlink arrival and the paging occasion that served it —
	// the latency cost of coarsened (smart) paging cycles.
	PagingDelayTTIs int64
}

// Add accumulates another cell's counters (for fleet-wide aggregation).
func (s *DefenseStats) Add(o DefenseStats) {
	s.PadBytes += o.PadBytes
	s.DummyBytes += o.DummyBytes
	s.CoverBytes += o.CoverBytes
	s.PagingMessages += o.PagingMessages
	s.PagingRecords += o.PagingRecords
	s.PagingDelayTTIs += o.PagingDelayTTIs
}

// DefenseStats reports the cell's cumulative defense-overhead counters.
func (c *Cell) DefenseStats() DefenseStats { return c.defense }

// cellMetrics caches the scheduler's observability handles. The zero value
// (enabled=false) keeps the per-TTI summary computations off entirely; the
// counters are nil-safe either way.
type cellMetrics struct {
	enabled       bool
	tick          uint64 // TTIs seen, for sampling decimation
	prbUtilDL     *obs.Histogram
	prbUtilUL     *obs.Histogram
	queueDepth    *obs.Gauge
	connected     *obs.Gauge
	grantsDL      *obs.Counter
	grantsUL      *obs.Counter
	paddingEvents *obs.Counter
	pdcchBlocked  *obs.Counter
	rntiRefreshes *obs.Counter
	padBytes      *obs.Counter
	dummyBytes    *obs.Counter
	coverBytes    *obs.Counter
	pagingMsgs    *obs.Counter
	pagingRecords *obs.Counter
}

// SetMetrics points the cell's scheduler instrumentation at a scope:
// per-TTI PRB-utilisation histograms (fraction of the cell's PRBs charged,
// per direction), queue-depth and connected-UE gauges, and grant/padding/
// PDCCH-blocking counters. A disabled scope turns instrumentation off.
// fracBuckets is the shared bucket layout of the PRB-utilisation
// histograms; registration copies it, so sharing one slice across cells
// keeps repeated SetMetrics calls allocation-free.
var fracBuckets = obs.FractionBuckets()

func (c *Cell) SetMetrics(sc obs.Scope) {
	c.m = cellMetrics{
		enabled:       sc.Enabled(),
		prbUtilDL:     sc.Histogram("prb_util_dl", fracBuckets),
		prbUtilUL:     sc.Histogram("prb_util_ul", fracBuckets),
		queueDepth:    sc.Gauge("queue_depth_bytes"),
		connected:     sc.Gauge("connected_ues"),
		grantsDL:      sc.Counter("grants_dl"),
		grantsUL:      sc.Counter("grants_ul"),
		paddingEvents: sc.Counter("padding_events"),
		pdcchBlocked:  sc.Counter("pdcch_blocked"),
		rntiRefreshes: sc.Counter("rnti_refreshes"),
		padBytes:      sc.Counter("defense_pad_bytes"),
		dummyBytes:    sc.Counter("defense_dummy_bytes"),
		coverBytes:    sc.Counter("defense_cover_bytes"),
		pagingMsgs:    sc.Counter("paging_messages"),
		pagingRecords: sc.Counter("paging_records"),
	}
}

// NewCell returns an empty cell.
func NewCell(id int, p operator.Profile, core *epc.Core, rng *sim.RNG) (*Cell, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("enb: %w", err)
	}
	c := &Cell{
		ID:        id,
		Profile:   p,
		core:      core,
		rng:       rng,
		alloc:     rnti.NewAllocator(rng),
		byUE:      make(map[*ue.UE]*ueCtx),
		dlPending: make(map[*ue.UE]int),
		camped:    make(map[*ue.UE]bool),
		lastTick:  -1,
	}
	return c, nil
}

// AddObserver registers a subframe observer (a sniffer).
func (c *Cell) AddObserver(o Observer) { c.observers = append(c.observers, o) }

// SetHandoverSink installs the fabric's cross-cell admission channel. With
// no sink installed, BeginHandover fails.
func (c *Cell) SetHandoverSink(s HandoverSink) { c.hoSink = s }

// Camp parks an idle UE on this cell and initialises its channel model.
func (c *Cell) Camp(u *ue.UE) {
	u.CellID = c.ID
	c.camped[u] = true
	u.SetChannel(c.Profile.CQIMean, c.Profile.CQISigma, c.Profile.CQIWalkPerSec)
}

// Leave removes an idle UE from this cell. Pending downlink for it is
// dropped (as the serving gateway would re-route it).
func (c *Cell) Leave(u *ue.UE) {
	if ctx, ok := c.byUE[u]; ok {
		c.release(ctx, u.State == ue.Connected)
	}
	delete(c.dlPending, u)
	delete(c.camped, u)
	if u.CellID == c.ID {
		u.CellID = ue.NoCell
	}
	u.State = ue.Idle
	u.RNTI = 0
}

// Detach removes a UE that left via handover: the camped registration is
// forgotten and any downlink bytes that arrived after its context was
// released are returned, so the target cell can carry them over (the
// serving gateway's path switch). Unlike Leave, the UE's state is not
// touched — the target cell owns its transition.
func (c *Cell) Detach(u *ue.UE) (dlPending int) {
	delete(c.camped, u)
	dlPending = c.dlPending[u]
	delete(c.dlPending, u)
	return dlPending
}

// Connected reports the number of UE contexts in connected state.
func (c *Cell) Connected() int { return c.nConnected }

// Stats reports cumulative grant and byte counters (DL, UL).
func (c *Cell) Stats() (grantsDL, grantsUL, bytesDL, bytesUL int64) {
	return c.grantsDL, c.grantsUL, c.bytesDL, c.bytesUL
}

// newCtx returns a blank context, recycling a released one when possible.
// A recycled context keeps only its (bumped) generation number.
func (c *Cell) newCtx() *ueCtx {
	if n := len(c.free); n > 0 {
		ctx := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return ctx
	}
	return &ueCtx{}
}

// enroll appends a context to the scheduling order and starts its UE's
// lazy channel-walk accrual. While a UE holds a context, its channel
// steps 100 ms at every multiple-of-100 subframe, after that subframe's
// scheduling and releases; the first step owed is the first such epoch
// past cqiLimit.
func (c *Cell) enroll(ctx *ueCtx) {
	ctx.ordIdx = len(c.order)
	c.order = append(c.order, ctx)
	next := c.cqiLimit() + 1
	ctx.ue.StartCQIAccrual((next + 99) / 100 * 100)
}

// cqiLimit is the highest subframe index whose channel-walk epoch a CQI
// read at this moment must reflect. An epoch's step lands at the end of
// its subframe — after data scheduling and releases — so reads inside a
// Tick see epochs strictly before the current subframe, and reads between
// ticks (fabric serial phase) see epochs up to the last one.
func (c *Cell) cqiLimit() int64 {
	if c.cur != nil {
		return c.sf.Index - 1
	}
	return c.lastTick
}

// SyncChannel replays every channel-walk epoch up to cqiLimit that the
// cell's lazy schedule still owes the UE, so out-of-band readers (the
// network's session-quality sampling) observe the CQI as of this moment.
func (c *Cell) SyncChannel(u *ue.UE) { u.CatchUpCQI(c.cqiLimit()) }

// ringAdd inserts a connected context with pending bytes into the active
// scheduling ring, keeping it sorted by scheduling-order position. No-op
// for contexts already present.
func (c *Cell) ringAdd(ctx *ueCtx) {
	if ctx.inRing {
		return
	}
	i, n := 0, len(c.active)
	for i < n {
		h := int(uint(i+n) >> 1)
		if c.active[h].ordIdx < ctx.ordIdx {
			i = h + 1
		} else {
			n = h
		}
	}
	c.active = append(c.active, nil)
	copy(c.active[i+1:], c.active[i:])
	c.active[i] = ctx
	ctx.inRing = true
}

// ringRemove takes a context out of the active ring (release paths call
// it eagerly; drained entries are instead pruned by the post-visit sweep).
func (c *Cell) ringRemove(ctx *ueCtx) {
	if !ctx.inRing {
		return
	}
	i, n := 0, len(c.active)
	for i < n {
		h := int(uint(i+n) >> 1)
		if c.active[h].ordIdx < ctx.ordIdx {
			i = h + 1
		} else {
			n = h
		}
	}
	copy(c.active[i:], c.active[i+1:])
	c.active[len(c.active)-1] = nil
	c.active = c.active[:len(c.active)-1]
	ctx.inRing = false
}

// armIdle schedules the inactivity-release deadline for a connected
// context whose queues are empty: subframe
// ceil((lastActivity+InactivityTimeout)/TTI), the first tick where
// now-lastActivity >= InactivityTimeout. Each tenancy keeps at most one
// pending deadline: while one is armed, later activity just moves
// lastActivity, and the deadline re-arms itself at the new time when it
// fires and fails re-validation (see fireIdle).
func (c *Cell) armIdle(ctx *ueCtx) {
	if ctx.state != ctxConnected || ctx.idleArmed {
		return
	}
	ctx.idleArmed = true
	c.arm(ctx, deadlineIdle, int64((ctx.lastActivity+c.Profile.InactivityTimeout+sim.TTI-1)/sim.TTI))
}

// armRefresh schedules the next C-RNTI refresh occasion. Occasions are
// the multiple-of-32 subframes, and a connected context's C-RNTI is
// replaced at the first occasion where now-rntiAge >= RNTIRefreshEvery.
func (c *Cell) armRefresh(ctx *ueCtx) {
	if c.Profile.RNTIRefreshEvery <= 0 || ctx.state != ctxConnected {
		return
	}
	first := int64((ctx.rntiAge + c.Profile.RNTIRefreshEvery + sim.TTI - 1) / sim.TTI)
	c.arm(ctx, deadlineRefresh, (first+31)/32*32)
}

// DeliverDL hands downlink payload for a UE to the cell (as arriving from
// the core network). Idle UEs are paged.
func (c *Cell) DeliverDL(u *ue.UE, bytes int, now time.Duration) {
	if bytes <= 0 {
		return
	}
	if ctx, ok := c.byUE[u]; ok && ctx.state == ctxConnected {
		ctx.dlQueue += bytes
		c.aggQueue += bytes
		c.ringAdd(ctx)
		return
	}
	first := c.dlPending[u] == 0
	c.dlPending[u] += bytes
	if first && u.State == ue.Idle {
		c.schedulePaging(u, now)
	}
}

// DeliverUL registers uplink payload generated at the UE. Idle UEs trigger
// random access; connected UEs signal a scheduling request, which reaches
// the scheduler after the SR cycle delay.
func (c *Cell) DeliverUL(u *ue.UE, bytes int, now time.Duration) {
	if bytes <= 0 {
		return
	}
	if ctx, ok := c.byUE[u]; ok && ctx.state == ctxConnected {
		g := ctx.gen
		c.ctl.Push(now+6*sim.TTI, func() {
			// The context may have been released — and possibly recycled for
			// another UE — during the SR cycle; the stale request then dies
			// here: bytes are queued only on the tenancy that requested them,
			// and only while it is connected.
			if ctx.gen != g || ctx.state != ctxConnected {
				return
			}
			ctx.ulQueue += bytes
			c.aggQueue += bytes
			c.ringAdd(ctx)
		})
		return
	}
	u.AddPendingUL(bytes, now)
	if u.State == ue.Idle {
		c.RequestConnection(u, rrc.CauseMOData, now)
	}
}

// RequestConnection starts the contention-based random access procedure
// for an idle UE camped on this cell.
func (c *Cell) RequestConnection(u *ue.UE, cause rrc.EstablishmentCause, now time.Duration) {
	if !c.camped[u] || u.State != ue.Idle || u.CellID != c.ID {
		return
	}
	u.State = ue.Connecting
	preamble := c.rng.IntN(64)
	// Preamble on the next RACH occasion.
	c.ctl.Push(now+2*sim.TTI, func() {
		c.cur.sf.RACH = append(c.cur.sf.RACH, phy.Preamble{ID: preamble})
		c.scheduleRAR(u, cause, preamble, c.cur.now)
	})
}

// scheduleRAR allocates a C-RNTI and emits msg2..msg4 plus security
// activation on their standard timeline.
func (c *Cell) scheduleRAR(u *ue.UE, cause rrc.EstablishmentCause, preamble int, now time.Duration) {
	r, err := c.alloc.Allocate()
	if err != nil {
		// Cell full: the UE backs off to idle and will retry on next data.
		u.State = ue.Idle
		return
	}
	ctx := c.newCtx()
	ctx.ue, ctx.rnti, ctx.state = u, r, ctxAccess
	c.byUE[u] = ctx
	c.enroll(ctx)
	g := ctx.gen

	tmsi, hasTMSI, random := u.Identity()
	if c.Profile.OneTimeIdentifiers {
		// 5G-style concealment: the UE presents a one-time pseudonym, so
		// the contention-resolution echo binds the RNTI to nothing stable.
		hasTMSI = false
		random = c.rng.Uint64() & 0xFFFFFFFFFF
	}
	id := rrc.UEIdentity{TMSI: uint32(tmsi), HasTMSI: hasTMSI, Random: random}

	// msg2: random access response on the RA-RNTI (common search space).
	c.ctl.Push(now+3*sim.TTI, func() {
		raRNTI := rnti.RAMin + rnti.RNTI(c.cur.sf.Index%10)
		c.cur.control(c, raRNTI, dci.Format1A, 3, rrc.RandomAccessResponse{
			PreambleID: preamble,
			TempCRNTI:  r,
		})
	})
	// msg3: UL grant carrying the RRC connection request in plaintext.
	c.ctl.Push(now+5*sim.TTI, func() {
		c.cur.control(c, r, dci.Format0, 2, rrc.ConnectionRequest{Identity: id, Cause: cause})
	})
	// msg4: connection setup echoing the contention-resolution identity —
	// the plaintext a passive identity-mapping attacker reads.
	c.ctl.Push(now+7*sim.TTI, func() {
		c.cur.control(c, r, dci.Format1A, 3, rrc.ConnectionSetup{ContentionResolution: id})
	})
	// Security activation, after which nothing is plaintext; the
	// connection is then live.
	c.ctl.Push(now+9*sim.TTI, func() {
		c.cur.control(c, r, dci.Format1A, 2, rrc.SecurityModeCommand{})
		if ctx.gen != g || ctx.state != ctxAccess {
			// Released mid-access (the UE re-camped elsewhere): the context
			// stays dead and the UE — now another cell's — is not touched.
			return
		}
		ctx.secured = true
		ctx.state = ctxConnected
		c.nConnected++
		ctx.lastActivity = c.cur.now
		ctx.rntiAge = c.cur.now
		u.State = ue.Connected
		u.RNTI = r
		if pend := u.TakePendingUL(); pend > 0 {
			ctx.ulQueue += pend
			c.aggQueue += pend
		}
		if pend := c.dlPending[u]; pend > 0 {
			ctx.dlQueue += pend
			c.aggQueue += pend
			delete(c.dlPending, u)
		}
		if ctx.dlQueue > 0 || ctx.ulQueue > 0 {
			c.ringAdd(ctx)
		} else {
			c.armIdle(ctx)
		}
		c.armRefresh(ctx)
	})
}

// pagingCycle is the paging-occasion period: every UE's paging frame
// recurs at this interval. The default 32 ms matches a common DRX
// configuration; the smart-paging defense coarsens it via the profile.
func (c *Cell) pagingCycle() time.Duration {
	if n := c.Profile.PagingCycleTTI; n > 0 {
		return time.Duration(n) * sim.TTI
	}
	return 32 * sim.TTI
}

// pagingBatchMax is the per-message paging record cap (LTE carries at
// most 16 records in one Paging message).
func (c *Cell) pagingBatchMax() int {
	if n := c.Profile.PagingBatchMax; n > 0 {
		return n
	}
	return 16
}

// schedulePaging queues an idle UE for its next paging occasion. A
// downlink arrival landing exactly on an occasion boundary is paged in
// that same subframe — the eNodeB assembles the paging message before the
// subframe goes on the air — not a full cycle later. All UEs queued for
// one occasion share batched paging messages (see flushPaging).
func (c *Cell) schedulePaging(u *ue.UE, now time.Duration) {
	cycle := c.pagingCycle()
	due := now + cycle - now%cycle
	if now%cycle == 0 {
		due = now
	}
	c.defense.PagingDelayTTIs += int64((due - now) / sim.TTI)
	occ := int64(due / sim.TTI)
	if c.pagingAt == nil {
		c.pagingAt = make(map[int64][]*ue.UE)
	}
	pending := c.pagingAt[occ]
	c.pagingAt[occ] = append(pending, u)
	if len(pending) == 0 {
		c.ctl.Push(due, func() { c.flushPaging(occ) })
	}
}

// flushPaging emits one paging occasion's records, batching up to the
// profile's per-message cap into each PRNTI message — same-occasion
// records share the PDCCH and the paging PRBs, as on a real eNodeB,
// instead of each UE costing its own message. Every paged UE then answers
// with mobile-terminated access on the standard timeline.
func (c *Cell) flushPaging(occ int64) {
	ues := c.pagingAt[occ]
	delete(c.pagingAt, occ)
	batchMax := c.pagingBatchMax()
	var records []rrc.PagingRecord
	var paged []*ue.UE
	flush := func() {
		if len(records) == 0 {
			return
		}
		// A paging record is S-TMSI sized; four fit in one robust PRB.
		nprb := (len(records) + 3) / 4
		c.cur.control(c, rnti.PRNTI, dci.Format1A, nprb, rrc.Paging{Records: records})
		c.defense.PagingMessages++
		c.defense.PagingRecords += int64(len(records))
		if c.m.enabled {
			c.m.pagingMsgs.Inc()
			c.m.pagingRecords.Add(int64(len(records)))
		}
		for _, pu := range paged {
			pu := pu
			c.ctl.Push(c.cur.now+6*sim.TTI, func() {
				c.RequestConnection(pu, rrc.CauseMTAccess, c.cur.now)
			})
		}
		records, paged = nil, nil
	}
	for _, u := range ues {
		// The camped check must come first: a UE that moved on belongs to
		// another cell's shard and may not even be read from this one.
		if !c.camped[u] || !u.HasTMSI || u.State != ue.Idle || u.CellID != c.ID {
			continue
		}
		shown := uint32(u.TMSI)
		if c.Profile.OneTimeIdentifiers {
			// Rotating paging pseudonym: useless for passive tracking.
			shown = uint32(c.rng.Uint64())
		}
		records = append(records, rrc.PagingRecord{TMSI: shown})
		paged = append(paged, u)
		if len(records) == batchMax {
			flush()
		}
	}
	flush()
}

// BeginHandover starts the source side of an X2-style handover of a
// connected UE: the (encrypted) reconfiguration command goes on the air
// now, and two TTIs later the context is released and the admission —
// with the UE's remaining byte queues — is posted to the handover sink.
// The fabric applies the admission at the target cell at the next
// synchronization point, so no plaintext identity is ever exposed in the
// target cell — exactly the property that forces the paper's attacker to
// re-map identities after handover.
func (c *Cell) BeginHandover(u *ue.UE, targetCellID int, now time.Duration) error {
	ctx, ok := c.byUE[u]
	if !ok || ctx.state != ctxConnected {
		return fmt.Errorf("enb: handover of %s: not connected in cell %d", u.Name, c.ID)
	}
	if c.hoSink == nil {
		return fmt.Errorf("enb: cell %d: no handover sink installed", c.ID)
	}
	// Encrypted RRCConnectionReconfiguration with mobilityControlInfo.
	c.ctl.Push(now, func() {
		c.cur.control(c, ctx.rnti, dci.Format1A, 2, nil)
	})
	dl, ul := ctx.dlQueue, ctx.ulQueue
	ctx.dlQueue, ctx.ulQueue = 0, 0
	c.aggQueue -= dl + ul
	c.ringRemove(ctx)
	// With its queues carried off, the context is idle-eligible: should the
	// release below somehow not run (it always does today), the inactivity
	// deadline still reclaims it at the first tick where
	// now-lastActivity >= InactivityTimeout. That tick may already have
	// passed; the deadline then fires at the next one.
	c.armIdle(ctx)
	g := ctx.gen
	c.ctl.Push(now+2*sim.TTI, func() {
		// The UE keeps its state (Connected) and serving-cell binding until
		// the target admits it: writes to the UE from here would race with
		// its owning shard, and traffic arriving in the gap buffers against
		// the UE or the source cell instead of triggering spurious
		// contention-based access. The generation guard covers the context
		// having been released by other means and recycled meanwhile.
		if ctx.gen == g {
			c.releaseQuiet(ctx)
		}
		c.hoSink(u, targetCellID, dl, ul)
	})
	return nil
}

// AdmitHandover creates a connected, secured context for a UE arriving via
// handover (non-contention random access, ~10 ms). It must be called from
// the fabric's serial phase — it re-camps the UE onto this cell.
func (c *Cell) AdmitHandover(u *ue.UE, dlQueue, ulQueue int, now time.Duration) {
	c.Camp(u)
	u.State = ue.Connecting
	r, err := c.alloc.Allocate()
	if err != nil {
		u.State = ue.Idle
		return
	}
	ctx := c.newCtx()
	ctx.ue, ctx.rnti, ctx.state = u, r, ctxAccess
	ctx.secured = true
	ctx.dlQueue, ctx.ulQueue = dlQueue, ulQueue
	c.byUE[u] = ctx
	c.enroll(ctx)
	c.aggQueue += dlQueue + ulQueue
	g := ctx.gen
	c.ctl.Push(now+8*sim.TTI, func() {
		// Dedicated-preamble RACH completes; no contention resolution, no
		// plaintext identity on the air.
		c.cur.sf.RACH = append(c.cur.sf.RACH, phy.Preamble{ID: 60 + c.rng.IntN(4)})
		c.cur.control(c, r, dci.Format1A, 2, nil)
		if ctx.gen != g || ctx.state != ctxAccess {
			return // released before completion (the UE re-camped elsewhere)
		}
		ctx.state = ctxConnected
		c.nConnected++
		ctx.lastActivity = c.cur.now
		ctx.rntiAge = c.cur.now
		u.State = ue.Connected
		u.RNTI = r
		// Traffic that arrived during the brief context gap between release
		// at the source and admission here is carried into the new bearer.
		if pend := u.TakePendingUL(); pend > 0 {
			ctx.ulQueue += pend
			c.aggQueue += pend
		}
		if pend := c.dlPending[u]; pend > 0 {
			ctx.dlQueue += pend
			c.aggQueue += pend
			delete(c.dlPending, u)
		}
		if ctx.dlQueue > 0 || ctx.ulQueue > 0 {
			c.ringAdd(ctx)
		} else {
			c.armIdle(ctx)
		}
		c.armRefresh(ctx)
	})
}

// releaseQuiet tears down a UE context without touching the UE itself:
// the handover path uses it while the UE is formally still served by this
// cell but already bound for another, whose fabric shard owns its state.
func (c *Cell) releaseQuiet(ctx *ueCtx) {
	if ctx.state == ctxReleased {
		return
	}
	c.aggQueue -= ctx.dlQueue + ctx.ulQueue
	if ctx.state == ctxConnected {
		c.nConnected--
	}
	ctx.state = ctxReleased
	delete(c.byUE, ctx.ue)
	c.alloc.Release(ctx.rnti)
	c.ringRemove(ctx)
	// A UE's channel stops stepping with its context: settle the epochs
	// owed up to cqiLimit, then freeze the walk.
	ctx.ue.CatchUpCQI(c.cqiLimit())
	ctx.ue.StopCQIAccrual()
	c.pendingRelease = append(c.pendingRelease, ctx)
	// ctx is compacted out of c.order at the end of the current Tick.
}

// release tears down a UE context. withMessage emits the (encrypted)
// RRC release on the air first.
func (c *Cell) release(ctx *ueCtx, withMessage bool) {
	if ctx.state == ctxReleased {
		return
	}
	if withMessage && c.cur != nil {
		c.cur.control(c, ctx.rnti, dci.Format1A, 1, nil)
	}
	c.releaseQuiet(ctx)
	if ctx.ue.CellID == c.ID {
		ctx.ue.State = ue.Idle
		ctx.ue.RNTI = 0
	}
}
