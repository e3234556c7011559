// Package sim provides the deterministic discrete-event foundation used by
// the LTE radio-layer simulator: a seeded random source with the
// distributions the traffic and channel models need, and a time-ordered
// event queue driven at 1 ms (subframe) granularity.
//
// The queue's ordering contract: PopDue(now) fires every pending event with
// At <= now in (At, seq) order, seq being push order, so events due at the
// same instant fire in the order they were pushed. Internally an event
// belongs to slot ceil(At/TTI), the subframe edge at which a per-TTI
// PopDue fires it; the slot decides where the event waits, never the
// order it fires in.
//
// Every stochastic component in this repository receives an explicit *RNG;
// there is no global random state. Reproducing an experiment is therefore a
// matter of reusing its seed.
package sim

import (
	"math"
	"math/rand/v2"
)

// RNG is a deterministic random source extended with the distributions used
// by the traffic generators and channel models. It is NOT safe for
// concurrent use; components that run in parallel must Fork their own.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic RNG seeded with the given seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{r: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Fork derives an independent deterministic stream from this RNG. The child
// stream is a pure function of the parent's current state, so forking in a
// fixed order preserves reproducibility while decoupling consumers.
func (g *RNG) Fork() *RNG {
	return &RNG{r: rand.New(rand.NewPCG(g.r.Uint64(), g.r.Uint64()))}
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// IntN returns a uniform value in [0, n). n must be > 0.
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Uniform returns a uniform value in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// UniformInt returns a uniform integer in [lo, hi]. It panics if hi < lo.
func (g *RNG) UniformInt(lo, hi int) int {
	if hi < lo {
		panic("sim: UniformInt with hi < lo")
	}
	return lo + g.r.IntN(hi-lo+1)
}

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// ClampedNormal returns a Normal sample clamped to [lo, hi].
func (g *RNG) ClampedNormal(mean, stddev, lo, hi float64) float64 {
	v := g.Normal(mean, stddev)
	return math.Min(hi, math.Max(lo, v))
}

// LogNormal returns a log-normally distributed value whose underlying normal
// has parameters mu and sigma.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.Normal(mu, sigma))
}

// Exponential returns an exponentially distributed value with the given
// mean (mean = 1/rate).
func (g *RNG) Exponential(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's method for small means and a normal approximation for large ones.
func (g *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 60 {
		v := g.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= g.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Pareto returns a bounded Pareto-distributed value with the given scale
// (minimum) and shape alpha. Heavy-tailed sizes such as media bursts in
// messaging traffic use this.
func (g *RNG) Pareto(scale, alpha float64) float64 {
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	return scale / math.Pow(u, 1/alpha)
}

// PermInto fills p with a random permutation of [0, len(p)) without
// allocating. It consumes exactly the same random draws as math/rand/v2's
// Perm(len(p)) (identity fill followed by Shuffle).
func (g *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	g.r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }
