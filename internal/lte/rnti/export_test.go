package rnti

// Active reports the number of allocated C-RNTIs.
func (a *Allocator) Active() int { return len(a.inUse) }
