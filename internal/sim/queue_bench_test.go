package sim_test

import (
	"testing"
	"time"

	"ltefp/internal/sim"
)

// BenchmarkQueuePushPop measures the event queue's steady-state cost: a
// rolling population of 64 pending events, one push and one pop per
// operation, as the fabric's shard queues see every TTI.
func BenchmarkQueuePushPop(b *testing.B) {
	var q sim.Queue
	fired := 0
	f := func() { fired++ }
	const horizon = 64
	for i := 0; i < horizon; i++ {
		q.Push(time.Duration(i)*sim.TTI, f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := time.Duration(i) * sim.TTI
		q.Push(now+horizon*sim.TTI, f)
		q.PopDue(now)
	}
	if fired == 0 {
		b.Fatal("no events fired")
	}
}

// counter is a Firer that counts its firings.
type counter struct{ n int }

func (c *counter) Fire() { c.n++ }

// BenchmarkQueueSessionArrivals measures one 60-second session's
// application arrivals as the network schedules them: about 11 000
// arrivals at unaligned times, pushed at once in time order when the
// session starts, then drained one TTI at a time. One operation is the
// whole session.
func BenchmarkQueueSessionArrivals(b *testing.B) {
	const (
		session  = time.Minute
		arrivals = 11_000
	)
	g := sim.NewRNG(1)
	at := make([]time.Duration, arrivals)
	var t time.Duration
	for i := range at {
		t += time.Duration(g.Exponential(float64(session) / arrivals))
		at[i] = min(t, session)
	}
	var q sim.Queue
	var c counter
	var start time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range at {
			q.PushFirer(start+a, &c)
		}
		end := start + session
		for now := start; now <= end; now += sim.TTI {
			q.PopDue(now)
		}
		start = end + sim.TTI
	}
	if c.n != b.N*arrivals {
		b.Fatalf("fired %d of %d arrivals", c.n, b.N*arrivals)
	}
}

// retry is a control message blocked on the PDCCH: every time it fires it
// re-queues itself for the next TTI.
type retry struct {
	q   *sim.Queue
	now *time.Duration
}

func (r *retry) Fire() { r.q.PushFirer(*r.now+sim.TTI, r) }

// BenchmarkQueueRetryStorm measures a congested cell's control queue: 50
// pending retries, each fired and re-pushed at now+TTI every TTI. One
// operation is one TTI.
func BenchmarkQueueRetryStorm(b *testing.B) {
	const pending = 50
	var q sim.Queue
	var now time.Duration
	rs := make([]retry, pending)
	for i := range rs {
		rs[i] = retry{q: &q, now: &now}
		q.PushFirer(sim.TTI, &rs[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += sim.TTI
		if q.PopDue(now) != pending {
			b.Fatal("retries lost")
		}
	}
}
