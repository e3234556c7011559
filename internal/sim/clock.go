package sim

import "time"

// TTI is the LTE transmission time interval: one subframe, 1 ms.
const TTI = time.Millisecond

// Clock tracks simulated time at subframe granularity.
type Clock struct {
	now time.Duration
}

// Now returns the current simulated time.
func (c *Clock) Now() time.Duration { return c.now }

// Subframe returns the absolute subframe index (1 ms ticks since start).
func (c *Clock) Subframe() int64 { return int64(c.now / TTI) }

// Tick advances the clock by one TTI.
func (c *Clock) Tick() { c.now += TTI }

// AdvanceTo moves the clock forward to t. It panics if t is in the past:
// simulated time never rewinds.
func (c *Clock) AdvanceTo(t time.Duration) {
	if t < c.now {
		panic("sim: clock moving backwards")
	}
	c.now = t
}
