package main

import (
	"fmt"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/capture"
	"ltefp/internal/lte/operator"
)

// metro captures one 60 s YouTube victim in a T-Mobile cell that also
// carries 10 000 resident, mostly idle UEs (the BenchmarkCapture60sPop10k
// scenario).
type metro struct {
	cfg     *config
	app     appmodel.App
	profile operator.Profile
}

func newMetro(c *config) *metro {
	// A metro idle timer longer than the run keeps the population resident
	// in the scheduler instead of released after its attach burst.
	p := operator.TMobile()
	p.InactivityTimeout = 15 * time.Minute
	return &metro{cfg: c, profile: p}
}

func (m *metro) setup() (err error) {
	m.app, err = appmodel.ByName("YouTube")
	return err
}

func (m *metro) close() error { return nil }

func (m *metro) scenario(i int) capture.Scenario {
	return capture.Scenario{
		Seed:  m.cfg.seed + uint64(i),
		Cells: []capture.Cell{{ID: 1, Profile: m.profile}},
		Sessions: []capture.Session{{
			UE: "victim", CellID: 1, App: m.app,
			Start: 500 * time.Millisecond, Duration: time.Minute,
		}},
		Population: 10_000,
		Settle:     2 * time.Second,
	}
}

func (m *metro) op(i int) (outcome, error) {
	c, err := capture.Run(m.scenario(i))
	if err != nil {
		return outcome{}, err
	}
	victim := c.UserTrace("victim")
	out := outcome{digest: captureDigest(victim, len(c.Records), len(c.Events), len(c.Pagings), c.Health)}
	if len(victim) == 0 {
		return out, fmt.Errorf("no records attributed to the victim")
	}
	return out, nil
}

func (m *metro) replay(i int, tr *tracer) (outcome, error) {
	c, err := newCell(m.scenario(i), tr)
	if err != nil {
		return outcome{}, err
	}
	cc := c.capture("victim")
	return outcome{digest: captureDigest(cc.victim, cc.records, cc.events, cc.pagings, cc.health)}, nil
}
