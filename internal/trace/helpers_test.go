package trace

import (
	"time"

	"ltefp/internal/lte/rnti"
)

// FilterRNTI keeps only records addressed to the given RNTI.
func (t Trace) FilterRNTI(r rnti.RNTI) Trace {
	out := make(Trace, 0, len(t))
	for _, rec := range t {
		if rec.RNTI == r {
			out = append(out, rec)
		}
	}
	return out
}

// ByRNTI groups the trace per RNTI, preserving time order within groups.
func (t Trace) ByRNTI() map[rnti.RNTI]Trace {
	out := make(map[rnti.RNTI]Trace)
	for _, rec := range t {
		out[rec.RNTI] = append(out[rec.RNTI], rec)
	}
	return out
}

// SplitSessions cuts the trace wherever consecutive records are separated
// by more than gap — the radio-layer notion of an application session
// boundary (the same silence that triggers an RRC release).
func (t Trace) SplitSessions(gap time.Duration) []Trace {
	if len(t) == 0 {
		return nil
	}
	var out []Trace
	start := 0
	for i := 1; i < len(t); i++ {
		if t[i].At-t[i-1].At > gap {
			out = append(out, t[start:i])
			start = i
		}
	}
	return append(out, t[start:])
}
