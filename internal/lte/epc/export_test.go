package epc

import "fmt"

// TMSIOf returns the current TMSI of a subscriber.
func (c *Core) TMSIOf(imsi IMSI) (TMSI, error) {
	t, ok := c.byIMSI[imsi]
	if !ok {
		return 0, fmt.Errorf("lookup %q: %w", imsi, ErrUnknownSubscriber)
	}
	return t, nil
}

// Resolve returns the subscriber a TMSI currently belongs to.
func (c *Core) Resolve(t TMSI) (IMSI, error) {
	imsi, ok := c.byTMSI[t]
	if !ok {
		return "", fmt.Errorf("resolve %v: %w", t, ErrUnknownSubscriber)
	}
	return imsi, nil
}

// Registered reports the number of attached subscribers.
func (c *Core) Registered() int { return len(c.byIMSI) }
