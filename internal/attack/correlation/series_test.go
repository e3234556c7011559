package correlation

import (
	"time"

	"ltefp/internal/trace"
)

// RateSeries reduces a trace to per-bin frame counts over [start, end).
func RateSeries(t trace.Trace, bin, start, end time.Duration) []float64 {
	if bin <= 0 {
		panic("correlation: non-positive bin")
	}
	n := int((end - start + bin - 1) / bin) // ceil: a partial last bin counts
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	for _, r := range t {
		if r.At < start || r.At >= end {
			continue
		}
		out[int((r.At-start)/bin)]++
	}
	return out
}

// ByteRateSeries reduces a trace to per-bin byte volumes over [start, end).
func ByteRateSeries(t trace.Trace, bin, start, end time.Duration) []float64 {
	if bin <= 0 {
		panic("correlation: non-positive bin")
	}
	n := int((end - start + bin - 1) / bin)
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	for _, r := range t {
		if r.At < start || r.At >= end {
			continue
		}
		out[int((r.At-start)/bin)] += float64(r.Bytes)
	}
	return out
}
