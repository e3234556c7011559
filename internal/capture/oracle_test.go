package capture

import (
	"sort"
	"time"

	"ltefp/internal/identity"
	"ltefp/internal/lte/enb"
	"ltefp/internal/trace"
)

// RunOracle exports runOracle to the capture_test package.
var RunOracle = runOracle

// runOracle is the reference batch capture: the whole simulation in one
// n.Run, each sniffer's records validated after the fact through
// AppendValidated, then Run's assembly. Run, which drains a Live instead,
// must match it record for record.
func runOracle(sc Scenario) (*Capture, error) {
	p, err := prepare(sc)
	if err != nil {
		return nil, err
	}
	n, sniffers, ues := p.n, p.sniffers, p.ues
	maxIdle := p.maxIdle
	n.Run(p.end)

	out := &Capture{TMSIs: make(map[string][]uint32, len(ues))}
	total := 0
	for _, s := range sniffers {
		total += len(s.Records())
	}
	out.Records = make(trace.Trace, 0, total)
	for _, s := range sniffers {
		out.Records = s.AppendValidated(out.Records, minRNTISightings)
		out.Events = append(out.Events, s.IdentityEvents()...)
		out.Pagings = append(out.Pagings, s.PagingEvents()...)
		st := s.Stats()
		out.Dropped += st.Dropped
		addHealth(&out.Health, st)
	}
	n.EachCell(func(c *enb.Cell) { out.Defense.Add(c.DefenseStats()) })
	out.Records.Sort()
	sort.SliceStable(out.Events, func(i, j int) bool { return out.Events[i].At < out.Events[j].At })
	out.Mapper = identity.Build(out.Events, out.Records, maxIdle+2*time.Second)
	for name, u := range ues {
		for _, t := range n.TMSIHistory(u) {
			out.TMSIs[name] = append(out.TMSIs[name], uint32(t))
		}
	}
	return out, nil
}
