package capture_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/capture"
	"ltefp/internal/lte/operator"
	"ltefp/internal/sim"
	"ltefp/internal/sniffer"
)

// captureDigest hashes everything observable about a capture: records,
// identity events, pagings, TMSI histories, and the health counters.
func captureDigest(res *capture.Capture) string {
	h := sha256.New()
	for _, r := range res.Records {
		fmt.Fprintf(h, "%v\n", r)
	}
	for _, e := range res.Events {
		fmt.Fprintf(h, "%v\n", e)
	}
	for _, p := range res.Pagings {
		fmt.Fprintf(h, "%v\n", p)
	}
	names := make([]string, 0, len(res.TMSIs))
	for name := range res.TMSIs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s %v\n", name, res.TMSIs[name])
	}
	fmt.Fprintf(h, "dropped=%d health=%+v\n", res.Dropped, res.Health)
	return hex.EncodeToString(h.Sum(nil))
}

// randomScenario draws a scenario that exercises the scheduler's corners:
// multiple cells, handovers and reselections, RNTI refresh, traffic
// morphing, concealed identities, sparse background population, and
// inactivity timeouts short enough to trigger releases mid-run.
func randomScenario(t *testing.T, g *sim.RNG) capture.Scenario {
	t.Helper()
	networks := []string{"Lab", "Verizon", "AT&T", "T-Mobile"}
	prof, err := operator.ByName(networks[g.IntN(len(networks))])
	if err != nil {
		t.Fatal(err)
	}
	prof.InactivityTimeout = time.Duration(g.Uniform(0.3, 2.5) * float64(time.Second))
	prof.BackgroundUEs = g.IntN(4) // keep ambient load small; Population is the crowd
	if g.Bool(0.5) {
		prof.RNTIRefreshEvery = time.Duration(g.Uniform(0.3, 1.5) * float64(time.Second))
	}
	if g.Bool(0.5) {
		prof.GUTIReallocEvery = time.Duration(g.Uniform(1, 3) * float64(time.Second))
	}
	prof.PadBuckets = g.Bool(0.3)
	prof.OneTimeIdentifiers = g.Bool(0.3)
	if g.Bool(0.3) {
		prof.GrantQuantum = 128 << g.IntN(3)
	}
	if g.Bool(0.3) {
		prof.DummyBurstProb = g.Uniform(0.02, 0.3)
		prof.DummyBurstMaxBytes = 200 + g.IntN(1400)
	}
	if g.Bool(0.3) {
		prof.ConstantRatePeriodTTI = 10 + g.IntN(50)
		prof.ConstantRateBytes = 100 + g.IntN(600)
	}
	if g.Bool(0.3) {
		prof.PagingCycleTTI = 32 << g.IntN(3)
	}

	nCells := 1 + g.IntN(3)
	cells := make([]capture.Cell, nCells)
	for i := range cells {
		cells[i] = capture.Cell{ID: i + 1, Profile: prof}
	}
	apps := appmodel.Apps()
	var sessions []capture.Session
	var moves []capture.Move
	nUEs := 1 + g.IntN(2)
	for u := 0; u < nUEs; u++ {
		name := fmt.Sprintf("ue-%d", u)
		start := time.Duration(g.Uniform(0.2, 0.8) * float64(time.Second))
		dur := time.Duration(g.Uniform(2, 5) * float64(time.Second))
		sessions = append(sessions, capture.Session{
			UE:       name,
			CellID:   1 + g.IntN(nCells),
			App:      apps[g.IntN(len(apps))],
			Start:    start,
			Duration: dur,
			Day:      1 + g.IntN(3),
		})
		if nCells > 1 && g.Bool(0.7) {
			moves = append(moves, capture.Move{
				UE:       name,
				ToCell:   1 + g.IntN(nCells),
				At:       start + dur/2,
				Handover: g.Bool(0.6),
			})
		}
	}
	return capture.Scenario{
		Seed:       g.Uint64(),
		Cells:      cells,
		Sessions:   sessions,
		Moves:      moves,
		Population: g.IntN(3) * 15,
		Sniffer: sniffer.Config{
			CorruptProb:  0.002,
			DownlinkOnly: g.Bool(0.25),
		},
		ApplyProfileLoss: true,
		// Long enough past the last session for inactivity releases (and
		// their timers) to fire inside the run.
		Settle: prof.InactivityTimeout + 1500*time.Millisecond,
	}
}

// TestSchedulerScenarioDigests pins the scheduler's output byte for byte
// on randomized scenarios covering handover, RNTI refresh, morphing,
// concealment, population churn, and mid-run inactivity releases: every
// capture's digest must equal the constant recorded for its draw. The
// constants freeze what the active-set ring, the event-queue deadlines,
// lazy channel accrual and context recycling produce together.
func TestSchedulerScenarioDigests(t *testing.T) {
	want := [10]string{
		"9feac19eeee7e933a6d88bee0c33e0e7c6a461863bacee0a2324a2503131b76e",
		"54ea26b127b90e8bd5b3eda39c054d24303a9635370c754ec6925facb8655cfc",
		"c0b75bd6614844cee85b340ee7ff598bcbaa8cc64affc21959b784a00bc14faf",
		"3be7b7cf4d447dcc14869dacbf9a2935f2c69be517fcbd8096b2261b6d930ff2",
		"9b10f2ee149986593a68fc016917cd5fc6368b4e503b56db77e27a08f87f94ac",
		"881fccd6e4ca58fb1fe40fe4ef4097189924993bf228649a88f5090f590d88f6",
		"fffbf43c214be6176da4f139636c5f2f3517c39cd335e72d5714c40498773f94",
		"4425e317000076ce477bba2314af08f1cc0cf4ed5b5e99553eca537cce75bde7",
		"47c6a2940dfa6b9635aeab1ab9419af612b966b2d8d495eaee3254438a08b870",
		"2eaf4fa53de35090e22bc7bff37bc1829765a25eba656866483d5df26a64951c",
	}
	g := sim.NewRNG(0xd1f7)
	for i := range want {
		sc := randomScenario(t, g)
		res, err := capture.Run(sc)
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		if got := captureDigest(res); got != want[i] {
			t.Errorf("scenario %d (seed %d, %d cells, %d sessions, pop %d): digest %s, want %s",
				i, sc.Seed, len(sc.Cells), len(sc.Sessions), sc.Population, got, want[i])
		}
	}
}

// TestRunMatchesOracle checks Run, a Live stepped once to the scenario end,
// against the batch path it replaced (runOracle: one n.Run, then
// AppendValidated per sniffer) on randomized scenarios with heavier
// corruption, explicit capture loss and every direction setting on top of
// randomScenario's draws. Records must agree one for one in order, and so
// must the digest of everything else a capture holds, the defense
// counters and every session UE's attributed trace.
func TestRunMatchesOracle(t *testing.T) {
	g := sim.NewRNG(0x0c1e)
	var records, rejects, dropped int64
	for i := 0; i < 30; i++ {
		sc := randomScenario(t, g)
		sc.Sniffer.CorruptProb = g.Uniform(0.002, 0.08)
		sc.ApplyProfileLoss = false
		sc.Sniffer.LossProb = g.Uniform(0, 0.2)
		sc.Sniffer.DownlinkOnly, sc.Sniffer.UplinkOnly = false, false
		switch i % 3 {
		case 1:
			sc.Sniffer.DownlinkOnly = true
		case 2:
			sc.Sniffer.UplinkOnly = true
		}
		got, err := capture.Run(sc)
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		want, err := capture.RunOracle(sc)
		if err != nil {
			t.Fatalf("scenario %d oracle: %v", i, err)
		}
		if len(got.Records) != len(want.Records) {
			t.Fatalf("scenario %d: Run kept %d records, oracle %d", i, len(got.Records), len(want.Records))
		}
		for j := range want.Records {
			if got.Records[j] != want.Records[j] {
				t.Fatalf("scenario %d record %d: Run %+v, oracle %+v", i, j, got.Records[j], want.Records[j])
			}
		}
		records += int64(len(want.Records))
		rejects += want.Health.PlausibilityRejects
		dropped += want.Dropped
		if g, w := captureDigest(got), captureDigest(want); g != w {
			t.Fatalf("scenario %d: digest %s, oracle %s", i, g, w)
		}
		if got.Defense != want.Defense {
			t.Fatalf("scenario %d: defense %+v, oracle %+v", i, got.Defense, want.Defense)
		}
		for _, s := range sc.Sessions {
			gu, wu := got.UserTrace(s.UE), want.UserTrace(s.UE)
			if len(gu) != len(wu) {
				t.Fatalf("scenario %d: %s trace has %d records, oracle %d", i, s.UE, len(gu), len(wu))
			}
			for j := range wu {
				if gu[j] != wu[j] {
					t.Fatalf("scenario %d: %s record %d: Run %+v, oracle %+v", i, s.UE, j, gu[j], wu[j])
				}
			}
		}
	}
	if records == 0 || rejects == 0 || dropped == 0 {
		t.Fatalf("draws kept %d records, rejected %d, lost %d; the filter or loss went unchecked", records, rejects, dropped)
	}
	t.Logf("%d records kept, %d plausibility rejects, %d lost", records, rejects, dropped)
}
