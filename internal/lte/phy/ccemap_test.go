package phy

// NewCCEMap returns an occupancy map over ncce control channel elements.
func NewCCEMap(ncce int) *CCEMap {
	return &CCEMap{used: make([]bool, ncce)}
}
