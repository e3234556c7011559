package capture

import (
	"time"

	"ltefp/internal/sniffer"
	"ltefp/internal/trace"
)

// Live is a scenario being captured incrementally: the deterministic
// simulation stepped in simulated-time slices with each cell's sniffer
// drained between steps. It feeds the online pipeline in internal/stream,
// and Run is a Live stepped once to its end and closed, followed by Run's
// post-hoc identity mapping — a live attacker reads per-RNTI verdicts as
// they form instead.
//
// Records drained across all steps are exactly the records a single step
// to the end drains for the same scenario (per-RNTI time order preserved,
// cross-RNTI interleaving unspecified while the plausibility filter holds
// early sightings back). A Live is not safe for concurrent use.
type Live struct {
	p      *prepared
	now    time.Duration
	closed bool
}

// NewLive instantiates the scenario without running it.
func NewLive(sc Scenario) (*Live, error) {
	p, err := prepare(sc)
	if err != nil {
		return nil, err
	}
	return &Live{p: p}, nil
}

// End returns the simulated time the scenario completes (last session end
// plus settle).
func (l *Live) End() time.Duration { return l.p.end }

// Now returns the current simulated time.
func (l *Live) Now() time.Duration { return l.now }

// Step advances the simulation by slice (clamped to the scenario end),
// appends every newly-validated record from every sniffer to dst, and
// reports the new simulated time and whether the scenario still has time
// left. Stepping a closed or finished Live returns dst unchanged.
func (l *Live) Step(dst trace.Trace, slice time.Duration) (trace.Trace, time.Duration, bool) {
	if l.closed || l.now >= l.p.end {
		return dst, l.now, false
	}
	if slice <= 0 {
		slice = 100 * time.Millisecond
	}
	next := l.now + slice
	if next > l.p.end {
		next = l.p.end
	}
	l.p.n.Run(next)
	l.now = next
	for _, s := range l.p.sniffers {
		dst = s.DrainValidated(dst, minRNTISightings)
	}
	return dst, l.now, l.now < l.p.end
}

// Close ends the capture: it flushes each sniffer's never-validated
// pending records into the plausibility-reject counts and returns the
// total. Closing before the scenario end simply truncates the capture.
func (l *Live) Close() int64 {
	if l.closed {
		return 0
	}
	l.closed = true
	var rejects int64
	for _, s := range l.p.sniffers {
		rejects += s.FlushRejected()
	}
	return rejects
}

// Health aggregates every sniffer's capture-health counters so far.
func (l *Live) Health() sniffer.Stats {
	var h sniffer.Stats
	for _, s := range l.p.sniffers {
		addHealth(&h, s.Stats())
	}
	return h
}
