// Package capture orchestrates one end-to-end attack capture: it builds a
// simulated network from a declarative scenario (cells, victims, app
// sessions), deploys one passive sniffer per cell, runs the simulation,
// and performs identity mapping over the result — yielding the per-user
// radio traces every attack in this repository starts from. It is the glue
// between the radio substrate (internal/lte/...) and the attack layer
// (internal/attack/...).
package capture

import (
	"fmt"
	"sort"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/identity"
	"ltefp/internal/lte/enb"
	"ltefp/internal/lte/network"
	"ltefp/internal/lte/operator"
	"ltefp/internal/lte/ue"
	"ltefp/internal/obs"
	"ltefp/internal/sim"
	"ltefp/internal/sniffer"
	"ltefp/internal/trace"
)

// minRNTISightings is the plausibility threshold of the OWL-style filter:
// an RNTI seen fewer times is treated as a decode artefact.
const minRNTISightings = 3

// cellScopeNames pre-renders the metric scope names of small cell IDs so
// metrics-enabled runs do not Sprintf per capture.
var cellScopeNames = func() [32]string {
	var out [32]string
	for i := range out {
		out[i] = fmt.Sprintf("cell%d", i)
	}
	return out
}()

func cellScopeName(id int) string {
	if id >= 0 && id < len(cellScopeNames) {
		return cellScopeNames[id]
	}
	return fmt.Sprintf("cell%d", id)
}

// Session is one application run by one UE in one cell.
type Session struct {
	// UE names the user equipment; UEs are created on first mention.
	UE string
	// CellID is the serving cell for this session.
	CellID int
	// App generates the traffic, unless Arrivals is set.
	App appmodel.App
	// Arrivals, when non-nil, is a pre-built arrival stream (merged noise
	// traffic, paired-conversation sides) used instead of App.
	Arrivals []appmodel.Arrival
	// Start and Duration place the session on the timeline.
	Start    time.Duration
	Duration time.Duration
	// Day selects the app-drift day (0 and 1 both mean the training day).
	Day int
}

// Cell declares one cell of the scenario.
type Cell struct {
	ID      int
	Profile operator.Profile
}

// Move schedules a mobility action for a UE: an X2 handover if the UE is
// connected at that moment (Handover true), or an idle-mode reselection
// that defers until the UE's RRC connection ends (Handover false).
type Move struct {
	// UE names the moving user; it must appear in some session.
	UE string
	// ToCell is the destination cell ID.
	ToCell int
	// At is when the move is requested.
	At time.Duration
	// Handover selects connected-mode handover over idle reselection.
	Handover bool
}

// Scenario declares a full capture run.
type Scenario struct {
	// Seed makes the run reproducible.
	Seed uint64
	// Cells to instantiate. Each gets its own sniffer.
	Cells []Cell
	// Sessions to schedule.
	Sessions []Session
	// Moves schedules cross-cell mobility (handover, reselection) for
	// session UEs.
	Moves []Move
	// Population adds this many mostly-idle background UEs to every cell,
	// on top of the profile's ambient BackgroundUEs. Population UEs attach
	// via staggered RACH early in the run and then wake only for sparse
	// light sessions and paging pushes (~1% concurrently active), modelling
	// the metro-cell crowd a targeted attack must pick its victim out of.
	Population int
	// Workers spreads cell execution across this many goroutines (<= 1 is
	// serial). Output is byte-identical for every setting; see the fabric
	// determinism contract in internal/lte/network.
	Workers int
	// Sniffer configures capture fidelity. The zero value records both
	// directions losslessly; ApplyProfileLoss copies each cell profile's
	// loss figure instead.
	Sniffer sniffer.Config
	// ApplyProfileLoss sets each sniffer's loss probability from its
	// cell's operator profile (real-world capture conditions).
	ApplyProfileLoss bool
	// Settle is extra simulated time after the last session, letting
	// inactivity timers expire so identity intervals close (default 2 s
	// past the operator's inactivity timeout).
	Settle time.Duration
	// Metrics, when enabled, receives per-cell decode-health and scheduler
	// metrics under cellN.sniffer.* and cellN.enb.* names. The zero Scope
	// disables instrumentation.
	Metrics obs.Scope
}

// Capture is the attacker-side result of a scenario run.
type Capture struct {
	// Records is every validated DCI observation across all sniffers,
	// time-ordered.
	Records trace.Trace
	// Events are the observed RNTI↔TMSI bindings.
	Events []sniffer.IdentityEvent
	// Pagings are the observed paging records.
	Pagings []sniffer.PagingEvent
	// Mapper is the reconstructed identity map.
	Mapper *identity.Mapper
	// TMSIs maps UE name to every TMSI the UE held during the run.
	TMSIs map[string][]uint32
	// Dropped counts sniffer capture losses (all cells).
	Dropped int64
	// Health aggregates every sniffer's capture-health counters.
	Health sniffer.Stats
	// Defense aggregates every cell's defense-overhead counters.
	Defense enb.DefenseStats
}

// prepared is a scenario instantiated but not yet (fully) run: the network,
// its sniffers, and the timeline bounds, which a Live steps through.
type prepared struct {
	n        *network.Network
	sniffers []*sniffer.Sniffer
	ues      map[string]*ue.UE
	end      time.Duration // end of the last session plus settle
	maxIdle  time.Duration
}

// prepare instantiates the scenario: cells with their sniffers, UEs, and
// every session scheduled on the timeline.
func prepare(sc Scenario) (*prepared, error) {
	if len(sc.Cells) == 0 {
		return nil, fmt.Errorf("capture: scenario has no cells")
	}
	n := network.New(sc.Seed)
	snifRNG := sim.NewRNG(sc.Seed ^ 0xdeadbeefcafe)
	sniffers := make([]*sniffer.Sniffer, 0, len(sc.Cells))
	maxIdle := time.Duration(0)
	for _, cs := range sc.Cells {
		cell, err := n.AddCell(cs.ID, cs.Profile)
		if err != nil {
			return nil, fmt.Errorf("capture: %w", err)
		}
		cfg := sc.Sniffer
		if sc.ApplyProfileLoss {
			cfg.LossProb = cs.Profile.CaptureLoss
		}
		if sc.Metrics.Enabled() {
			cellScope := sc.Metrics.Scope(cellScopeName(cs.ID))
			cfg.Metrics = cellScope.Scope("sniffer")
			cell.SetMetrics(cellScope.Scope("enb"))
		}
		s := sniffer.New(cfg, snifRNG.Fork())
		cell.AddObserver(s)
		sniffers = append(sniffers, s)
		if cs.Profile.InactivityTimeout > maxIdle {
			maxIdle = cs.Profile.InactivityTimeout
		}
	}

	if sc.Population > 0 {
		for _, cs := range sc.Cells {
			for i := 0; i < sc.Population; i++ {
				pu := n.NewUE(fmt.Sprintf("pop-%d-%d", cs.ID, i))
				n.Camp(pu, cs.ID)
				n.StartSparseBackground(pu)
			}
		}
	}

	ues := make(map[string]*ue.UE)
	var end time.Duration
	for _, s := range sc.Sessions {
		u, ok := ues[s.UE]
		if !ok {
			u = n.NewUE(s.UE)
			ues[s.UE] = u
			n.Camp(u, s.CellID)
		}
		if s.Arrivals != nil {
			n.ScheduleArrivals(u, s.CellID, s.Arrivals, s.Start)
		} else {
			day := s.Day
			if day < 1 {
				day = 1
			}
			n.ScheduleSession(u, s.CellID, s.App, s.Start, s.Duration, day)
		}
		if e := s.Start + s.Duration; e > end {
			end = e
		}
	}
	for _, m := range sc.Moves {
		u, ok := ues[m.UE]
		if !ok {
			return nil, fmt.Errorf("capture: move at %v names unknown UE %q", m.At, m.UE)
		}
		if _, err := n.Cell(m.ToCell); err != nil {
			return nil, fmt.Errorf("capture: move for %q: %w", m.UE, err)
		}
		n.ScheduleMove(u, m.ToCell, m.At, m.Handover)
		if m.At > end {
			end = m.At
		}
	}
	n.SetWorkers(sc.Workers)
	settle := sc.Settle
	if settle <= 0 {
		settle = maxIdle + 2*time.Second
	}
	return &prepared{n: n, sniffers: sniffers, ues: ues, end: end + settle, maxIdle: maxIdle}, nil
}

// addHealth accumulates one sniffer's counters into the aggregate.
func addHealth(h *sniffer.Stats, st sniffer.Stats) {
	h.Candidates += st.Candidates
	h.Captured += st.Captured
	h.Dropped += st.Dropped
	h.Corrupted += st.Corrupted
	h.CorruptCaught += st.CorruptCaught
	h.CorruptLeaked += st.CorruptLeaked
	h.ParseRejects += st.ParseRejects
	h.PlausibilityRejects += st.PlausibilityRejects
}

// Run executes the scenario: a Live stepped once to the scenario end and
// closed, followed by the post-hoc assembly (time sort, identity mapping,
// TMSI histories). With every RNTI's sighting count final, the one drain
// releases exactly the records the plausibility filter keeps, in capture
// order per sniffer.
func Run(sc Scenario) (*Capture, error) {
	l, err := NewLive(sc)
	if err != nil {
		return nil, err
	}
	p := l.p
	records, _, _ := l.Step(nil, p.end)
	l.Close()

	out := &Capture{Records: records, TMSIs: make(map[string][]uint32, len(p.ues))}
	for _, s := range p.sniffers {
		out.Events = append(out.Events, s.IdentityEvents()...)
		out.Pagings = append(out.Pagings, s.PagingEvents()...)
	}
	out.Health = l.Health()
	out.Dropped = out.Health.Dropped
	p.n.EachCell(func(c *enb.Cell) { out.Defense.Add(c.DefenseStats()) })
	out.Records.Sort()
	sort.SliceStable(out.Events, func(i, j int) bool { return out.Events[i].At < out.Events[j].At })
	out.Mapper = identity.Build(out.Events, out.Records, p.maxIdle+2*time.Second)
	for name, u := range p.ues {
		for _, t := range p.n.TMSIHistory(u) {
			out.TMSIs[name] = append(out.TMSIs[name], uint32(t))
		}
	}
	return out, nil
}

// UserTrace returns every record attributable to the named UE via identity
// mapping over all of its TMSIs.
func (c *Capture) UserTrace(ueName string) trace.Trace {
	return c.Mapper.UserTrace(c.Records, c.TMSIs[ueName]...)
}
