package main

import (
	"fmt"
	"sort"
	"time"

	"ltefp/internal/capture"
	"ltefp/internal/identity"
	"ltefp/internal/lte/network"
	"ltefp/internal/lte/phy"
	"ltefp/internal/lte/ue"
	"ltefp/internal/sim"
	"ltefp/internal/sniffer"
	"ltefp/internal/trace"
)

// The cell replay instantiates a capture.Scenario the way capture.prepare
// does — same network seed, same sniffer RNG derivation, same UE and
// session order — so that each layer's public entry points can be timed
// one by one. Every replay's output digest is compared with the untraced
// op's, which is what keeps this copy of the orchestration faithful.

// minSightings is capture's plausibility threshold: an RNTI seen fewer
// times is a decode artefact.
const minSightings = 3

// observeSample is how often the sniffer's per-TTI Observe is timed; the
// sampled total is scaled back up by the same factor.
const observeSample = 16

// sampledSniffer times one in observeSample Observe calls of the sniffer
// it wraps, less the clock's own cost per timing.
type sampledSniffer struct {
	*sniffer.Sniffer
	bias  time.Duration
	calls uint64
	ns    time.Duration
}

// Observe implements enb.Observer.
func (s *sampledSniffer) Observe(cellID int, sf *phy.Subframe) {
	s.calls++
	if s.calls%observeSample != 0 {
		s.Sniffer.Observe(cellID, sf)
		return
	}
	t0 := time.Now()
	s.Sniffer.Observe(cellID, sf)
	s.ns += max(time.Since(t0)-s.bias, 0)
}

// cell is an instantiated scenario being replayed under a tracer.
type cell struct {
	tr       *tracer
	n        *network.Network
	sniffers []*sampledSniffer
	ues      map[string]*ue.UE
	cells    int
	now, end time.Duration
	maxIdle  time.Duration
	// inNext is a streaming source's time inside Next.
	inNext time.Duration
}

// newCell instantiates sc inside a network.setup span.
func newCell(sc capture.Scenario, tr *tracer) (*cell, error) {
	id := tr.begin("network", "network.setup")
	defer tr.end(id)
	n := network.New(sc.Seed)
	snifRNG := sim.NewRNG(sc.Seed ^ 0xdeadbeefcafe)
	c := &cell{tr: tr, n: n, ues: make(map[string]*ue.UE), cells: len(sc.Cells)}
	for _, cs := range sc.Cells {
		ec, err := n.AddCell(cs.ID, cs.Profile)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		cfg := sc.Sniffer
		if sc.ApplyProfileLoss {
			cfg.LossProb = cs.Profile.CaptureLoss
		}
		s := &sampledSniffer{Sniffer: sniffer.New(cfg, snifRNG.Fork()), bias: tr.clockBias}
		ec.AddObserver(s)
		c.sniffers = append(c.sniffers, s)
		c.maxIdle = max(c.maxIdle, cs.Profile.InactivityTimeout)
	}
	for _, cs := range sc.Cells {
		for i := 0; i < sc.Population; i++ {
			pu := n.NewUE(fmt.Sprintf("pop-%d-%d", cs.ID, i))
			n.Camp(pu, cs.ID)
			n.StartSparseBackground(pu)
		}
	}
	var end time.Duration
	for _, s := range sc.Sessions {
		u, ok := c.ues[s.UE]
		if !ok {
			u = n.NewUE(s.UE)
			c.ues[s.UE] = u
			n.Camp(u, s.CellID)
		}
		n.ScheduleSession(u, s.CellID, s.App, s.Start, s.Duration, max(s.Day, 1))
		end = max(end, s.Start+s.Duration)
	}
	n.SetWorkers(sc.Workers)
	settle := sc.Settle
	if settle <= 0 {
		settle = c.maxIdle + 2*time.Second
	}
	c.end = end + settle
	return c, nil
}

func (c *cell) sampledObserve() time.Duration {
	var d time.Duration
	for _, s := range c.sniffers {
		d += s.ns
	}
	return d
}

// advance runs the network to simulated time to inside a network.Run
// span, with the sniffer's estimated Observe time as a child.
func (c *cell) advance(to time.Duration) {
	id := c.tr.begin("network", "network.Run")
	before := c.sampledObserve()
	c.n.Run(to)
	c.tr.estimate(id, "sniffer", "sniffer.Observe", observeSample*(c.sampledObserve()-before))
	c.tr.end(id)
	c.tr.count("network.ttis", float64(c.cells)*float64((to-c.now)/time.Millisecond))
	c.now = to
}

// countHealth adds the sniffers' funnel counters to the tracer.
func (c *cell) countHealth() sniffer.Stats {
	var h sniffer.Stats
	for _, s := range c.sniffers {
		st := s.Stats()
		h.Candidates += st.Candidates
		h.Captured += st.Captured
		h.PlausibilityRejects += st.PlausibilityRejects
	}
	c.tr.count("sniffer.candidates", float64(h.Candidates))
	c.tr.count("sniffer.captured", float64(h.Captured))
	c.tr.count("sniffer.plausibility_rejects", float64(h.PlausibilityRejects))
	return h
}

// cellCapture is what the batch replay reconstructs of a capture.Capture.
type cellCapture struct {
	victim  trace.Trace
	records int
	events  int
	pagings int
	health  sniffer.Stats
}

// capture runs the scenario to its end and assembles the victim's trace,
// as capture.Run followed by Capture.UserTrace does.
func (c *cell) capture(victim string) cellCapture {
	c.advance(c.end)

	id := c.tr.begin("sniffer", "sniffer.AppendValidated")
	total := 0
	for _, s := range c.sniffers {
		total += len(s.Records())
	}
	records := make(trace.Trace, 0, total)
	var events []sniffer.IdentityEvent
	pagings := 0
	for _, s := range c.sniffers {
		records = s.AppendValidated(records, minSightings)
		events = append(events, s.IdentityEvents()...)
		pagings += len(s.PagingEvents())
	}
	c.tr.end(id)
	health := c.countHealth()

	id = c.tr.begin("capture", "capture.assemble")
	records.Sort()
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	var tmsis []uint32
	for _, t := range c.n.TMSIHistory(c.ues[victim]) {
		tmsis = append(tmsis, uint32(t))
	}
	c.tr.end(id)

	id = c.tr.begin("identity", "identity.Build")
	m := identity.Build(events, records, c.maxIdle+2*time.Second)
	c.tr.end(id)
	id = c.tr.begin("identity", "identity.UserTrace")
	tr := m.UserTrace(records, tmsis...)
	c.tr.end(id)
	return cellCapture{victim: tr, records: len(records), events: len(events), pagings: pagings, health: health}
}

// Next implements stream.Source the way capture.Live.Step does: advance
// one 100 ms slice, then drain every sniffer's validated records.
func (c *cell) Next(dst trace.Trace) (trace.Trace, time.Duration, bool) {
	if c.now >= c.end {
		return dst, c.now, false
	}
	enter := time.Now()
	id := c.tr.begin("stream", "source.Next")
	c.advance(min(c.now+100*time.Millisecond, c.end))
	d := c.tr.begin("sniffer", "sniffer.DrainValidated")
	for _, s := range c.sniffers {
		dst = s.DrainValidated(dst, minSightings)
	}
	c.tr.end(d)
	c.tr.end(id)
	c.inNext += time.Since(enter)
	return dst, c.now, c.now < c.end
}

// close ends a stepped capture as capture.Live.Close does.
func (c *cell) close() {
	id := c.tr.begin("sniffer", "sniffer.FlushRejected")
	for _, s := range c.sniffers {
		s.FlushRejected()
	}
	c.tr.end(id)
	c.countHealth()
}
