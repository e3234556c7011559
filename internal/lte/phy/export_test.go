package phy

// Used reports how many CCEs are occupied.
func (m *CCEMap) Used() int {
	n := 0
	for _, u := range m.used {
		if u {
			n++
		}
	}
	return n
}
