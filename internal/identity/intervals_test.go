package identity

// IntervalsFor returns the bindings of one TMSI.
func (m *Mapper) IntervalsFor(tmsi uint32) []Interval {
	var out []Interval
	for _, idx := range m.byTMSI[tmsi] {
		out = append(out, m.intervals[idx])
	}
	return out
}
