package stream

import (
	"time"

	"ltefp/internal/capture"
	"ltefp/internal/trace"
)

// Source feeds the pipeline one time slice of records per call. Next
// appends the slice's records to dst and returns the extended slice, the
// simulated time now reached (every record with At < now has been
// delivered, the invariant the incremental extractor's AdvanceTo needs),
// and whether more slices remain. Implementations need not be safe for
// concurrent use; the pipeline calls Next from a single goroutine.
type Source interface {
	Next(dst trace.Trace) (out trace.Trace, now time.Duration, more bool)
}

// LiveSource adapts a capture.Live stepper: each Next advances the
// simulation by Slice and drains every sniffer.
type LiveSource struct {
	Live *capture.Live
	// Slice is the simulated time stepped per Next (default 100 ms).
	Slice time.Duration
}

// Next implements Source.
func (s *LiveSource) Next(dst trace.Trace) (trace.Trace, time.Duration, bool) {
	return s.Live.Step(dst, s.Slice)
}
