package stream

import (
	"time"

	"ltefp/internal/trace"
)

// ReplaySource feeds a recorded trace back in Slice-sized time slices, the
// bridge between offline captures and the online pipeline (and the heart
// of the offline/streaming equivalence tests). The trace must be
// time-ordered.
type ReplaySource struct {
	Trace trace.Trace
	// Slice is the simulated time advanced per Next (default 100 ms).
	Slice time.Duration

	idx int
	now time.Duration
}

// Next implements Source.
func (s *ReplaySource) Next(dst trace.Trace) (trace.Trace, time.Duration, bool) {
	slice := s.Slice
	if slice <= 0 {
		slice = 100 * time.Millisecond
	}
	s.now += slice
	for s.idx < len(s.Trace) && s.Trace[s.idx].At < s.now {
		dst = append(dst, s.Trace[s.idx])
		s.idx++
	}
	return dst, s.now, s.idx < len(s.Trace)
}

// FastForward positions the replay at a checkpoint's simulated time:
// records with At < now are skipped (they were delivered before the
// checkpoint was cut) and the next slice starts at now. now should be a
// multiple of Slice — checkpoint barriers are emitted at slice
// boundaries — so the post-restore slice grid matches the original run's.
func (s *ReplaySource) FastForward(now time.Duration) {
	s.now = now
	s.idx = 0
	for s.idx < len(s.Trace) && s.Trace[s.idx].At < now {
		s.idx++
	}
}
