package sim_test

import (
	"math"
	"testing"
	"time"

	"ltefp/internal/sim"
)

func TestRNGDeterminism(t *testing.T) {
	a := sim.NewRNG(42)
	b := sim.NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestForkIndependence(t *testing.T) {
	parent := sim.NewRNG(7)
	child := parent.Fork()
	// Draw from the child; the parent must continue exactly as a clone
	// that also forked once would.
	ref := sim.NewRNG(7)
	_ = ref.Fork()
	_ = child.Uint64()
	for i := 0; i < 10; i++ {
		if parent.Uint64() != ref.Uint64() {
			t.Fatal("child draws perturbed the parent stream")
		}
	}
}

func TestUniformBounds(t *testing.T) {
	g := sim.NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := g.Uniform(3, 9)
		if v < 3 || v >= 9 {
			t.Fatalf("Uniform(3, 9) = %v", v)
		}
		n := g.UniformInt(-2, 4)
		if n < -2 || n > 4 {
			t.Fatalf("UniformInt(-2, 4) = %d", n)
		}
	}
}

func TestUniformIntDegenerate(t *testing.T) {
	g := sim.NewRNG(1)
	if got := g.UniformInt(5, 5); got != 5 {
		t.Fatalf("UniformInt(5, 5) = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("UniformInt(6, 5) did not panic")
		}
	}()
	g.UniformInt(6, 5)
}

func TestNormalMoments(t *testing.T) {
	g := sim.NewRNG(2)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := g.Normal(10, 3)
		sum += v
		sq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("Normal mean = %v", mean)
	}
	if math.Abs(std-3) > 0.05 {
		t.Fatalf("Normal std = %v", std)
	}
}

func TestClampedNormal(t *testing.T) {
	g := sim.NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := g.ClampedNormal(0, 100, -1, 1)
		if v < -1 || v > 1 {
			t.Fatalf("ClampedNormal escaped bounds: %v", v)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	g := sim.NewRNG(4)
	for _, mean := range []float64{0.5, 4, 80} {
		const n = 50000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(g.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > mean*0.05+0.05 {
			t.Fatalf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
	if g.Poisson(0) != 0 || g.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive mean should be 0")
	}
}

func TestExponentialMean(t *testing.T) {
	g := sim.NewRNG(5)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += g.Exponential(2.5)
	}
	if got := sum / n; math.Abs(got-2.5) > 0.1 {
		t.Fatalf("Exponential(2.5) sample mean = %v", got)
	}
}

func TestParetoBounds(t *testing.T) {
	g := sim.NewRNG(6)
	for i := 0; i < 10000; i++ {
		if v := g.Pareto(100, 1.2); v < 100 {
			t.Fatalf("Pareto below scale: %v", v)
		}
	}
}

func TestQueueOrdering(t *testing.T) {
	var q sim.Queue
	var got []int
	q.Push(3*time.Millisecond, func() { got = append(got, 3) })
	q.Push(1*time.Millisecond, func() { got = append(got, 1) })
	q.Push(2*time.Millisecond, func() { got = append(got, 2) })
	// Equal times fire in push order.
	q.Push(2*time.Millisecond, func() { got = append(got, 22) })
	n := q.PopDue(2 * time.Millisecond)
	if n != 3 {
		t.Fatalf("PopDue fired %d events, want 3", n)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 22 {
		t.Fatalf("fire order = %v", got)
	}
	if q.Len() != 1 {
		t.Fatalf("Len() = %d", q.Len())
	}
	at, ok := q.PeekTime()
	if !ok || at != 3*time.Millisecond {
		t.Fatalf("PeekTime = (%v, %v)", at, ok)
	}
}

func TestQueueReentrantPush(t *testing.T) {
	// An event may schedule another event at the same instant; PopDue must
	// fire it in the same call.
	var q sim.Queue
	fired := 0
	q.Push(time.Millisecond, func() {
		fired++
		q.Push(time.Millisecond, func() { fired++ })
	})
	q.PopDue(time.Millisecond)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestClock(t *testing.T) {
	var c sim.Clock
	if c.Now() != 0 || c.Subframe() != 0 {
		t.Fatal("zero clock not at time zero")
	}
	for i := 0; i < 10257; i++ {
		c.Tick()
	}
	if c.Subframe() != 10257 || c.Now() != 10257*sim.TTI {
		t.Fatalf("after 10257 ticks: subframe %d, now %v", c.Subframe(), c.Now())
	}
	c.AdvanceTo(20 * time.Second)
	if c.Subframe() != 20000 {
		t.Fatalf("Subframe = %d", c.Subframe())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo backwards did not panic")
		}
	}()
	c.AdvanceTo(time.Second)
}
