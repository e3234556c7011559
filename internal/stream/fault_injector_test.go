package stream

import (
	"time"

	"ltefp/internal/lte/rnti"
	"ltefp/internal/obs"
	"ltefp/internal/sim"
	"ltefp/internal/trace"
)

// Window is a half-open interval of simulated time [From, To).
type Window struct {
	From, To time.Duration
}

// contains reports whether at falls inside the window.
func (w Window) contains(at time.Duration) bool { return at >= w.From && at < w.To }

// LossBurst is a window of elevated record loss.
type LossBurst struct {
	Window
	// Prob is the per-record drop probability inside the window.
	Prob float64
}

// ChurnStorm is a window of RNTI reassignment: users inside it may have
// their C-RNTI remapped to a fresh alias, permanently — the live
// pipeline then sees the same user as a new key, exactly what a real
// RNTI refresh does to an attacker.
type ChurnStorm struct {
	Window
	// Prob is the per-user chance of being remapped when first seen
	// inside the window.
	Prob float64
}

// FaultInjector wraps a Source with deterministic fault models: sniffer
// outage windows (all records dropped), loss bursts (records dropped with
// a probability), and RNTI churn storms (users remapped to alias RNTIs).
// Every dropped or remapped record is counted — in the injector's fields
// and, when Metrics is enabled, in obs counters (outage_dropped,
// burst_dropped, churn_remapped_users, churn_remapped_records).
type FaultInjector struct {
	Src     Source
	RNG     *sim.RNG // required for LossBursts/ChurnStorms draws
	Outages []Window
	Bursts  []LossBurst
	Storms  []ChurnStorm
	// Metrics receives the fault counters. Zero Scope disables.
	Metrics obs.Scope

	// OutageDropped, BurstDropped, RemappedUsers, RemappedRecords expose
	// the fault counts without a registry.
	OutageDropped   int64
	BurstDropped    int64
	RemappedUsers   int64
	RemappedRecords int64

	remap map[Key]rnti.RNTI
	m     struct {
		outage, burst, users, records *obs.Counter
	}
	bound bool
}

func (f *FaultInjector) bind() {
	if f.bound {
		return
	}
	f.bound = true
	f.m.outage = f.Metrics.Counter("outage_dropped")
	f.m.burst = f.Metrics.Counter("burst_dropped")
	f.m.users = f.Metrics.Counter("churn_remapped_users")
	f.m.records = f.Metrics.Counter("churn_remapped_records")
}

// Next implements Source: it pulls one slice from the wrapped source and
// applies the fault models record by record.
func (f *FaultInjector) Next(dst trace.Trace) (trace.Trace, time.Duration, bool) {
	f.bind()
	base := len(dst)
	out, now, more := f.Src.Next(dst)
	kept := out[:base]
	for _, r := range out[base:] {
		if f.outaged(r.At) {
			f.OutageDropped++
			f.m.outage.Inc()
			continue
		}
		if f.bursted(r.At) {
			f.BurstDropped++
			f.m.burst.Inc()
			continue
		}
		kept = append(kept, f.churned(r))
	}
	return kept, now, more
}

func (f *FaultInjector) outaged(at time.Duration) bool {
	for _, w := range f.Outages {
		if w.contains(at) {
			return true
		}
	}
	return false
}

func (f *FaultInjector) bursted(at time.Duration) bool {
	for _, b := range f.Bursts {
		if b.contains(at) && f.RNG.Bool(b.Prob) {
			return true
		}
	}
	return false
}

// churned applies RNTI churn: the first time a user is seen inside a
// storm, it may be assigned a fresh alias C-RNTI; once remapped, all of
// the user's later records carry the alias (RNTI refreshes persist).
func (f *FaultInjector) churned(r trace.Record) trace.Record {
	k := Key{CellID: r.CellID, RNTI: r.RNTI}
	if alias, ok := f.remap[k]; ok {
		r.RNTI = alias
		f.RemappedRecords++
		f.m.records.Inc()
		return r
	}
	for _, st := range f.Storms {
		if !st.contains(r.At) {
			continue
		}
		if !f.RNG.Bool(st.Prob) {
			break
		}
		span := int(rnti.CMax-rnti.CMin) + 1
		alias := rnti.RNTI(int(rnti.CMin) + f.RNG.IntN(span))
		if f.remap == nil {
			f.remap = make(map[Key]rnti.RNTI)
		}
		f.remap[k] = alias
		f.RemappedUsers++
		f.m.users.Inc()
		r.RNTI = alias
		f.RemappedRecords++
		f.m.records.Inc()
		break
	}
	return r
}
