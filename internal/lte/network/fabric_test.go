package network_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/lte/network"
	"ltefp/internal/lte/operator"
	"ltefp/internal/lte/ue"
	"ltefp/internal/sim"
	"ltefp/internal/sniffer"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fabricProfile is a light multi-cell profile: a couple of background UEs
// per cell and fast GUTI reallocation so the invariance digest covers
// ambient load, paging, and TMSI churn without commercial-scale cost.
func fabricProfile() operator.Profile {
	p := operator.Lab()
	p.BackgroundUEs = 2
	p.GUTIReallocEvery = 3 * time.Second
	p.InactivityTimeout = 2 * time.Second
	return p
}

// fabricDigest builds an nCells fabric with per-cell sniffers and a victim
// whose itinerary crosses three cells (one mid-burst handover, one idle
// reselection), runs it on the given worker count, and hashes everything
// observable: every sniffer's records, identity events, and pagings, plus
// the victim's TMSI history and final state.
func fabricDigest(t *testing.T, nCells, workers int) string {
	t.Helper()
	n := network.New(42)
	n.SetWorkers(workers)
	p := fabricProfile()
	srng := sim.NewRNG(0xfab)
	snifs := make([]*sniffer.Sniffer, 0, nCells)
	for id := 1; id <= nCells; id++ {
		c, err := n.AddCell(id, p)
		if err != nil {
			t.Fatal(err)
		}
		s := sniffer.New(sniffer.Config{}, srng.Fork())
		c.AddObserver(s)
		snifs = append(snifs, s)
	}
	apps := appmodel.Apps()
	v := n.NewUE("victim")
	n.Camp(v, 1)
	n.ScheduleSession(v, 1, apps[0], 500*time.Millisecond, 2*time.Second, 1)
	n.ScheduleMove(v, 2, 1200*time.Millisecond, true) // handover mid-stream
	n.ScheduleMove(v, 3, 5*time.Second, false)        // idle reselection
	n.ScheduleSession(v, 3, apps[3], 5500*time.Millisecond, 1500*time.Millisecond, 1)
	n.Run(8 * time.Second)

	h := sha256.New()
	for i, s := range snifs {
		fmt.Fprintf(h, "cell %d\n", i+1)
		for _, r := range s.Records() {
			fmt.Fprintf(h, "%v\n", r)
		}
		for _, e := range s.IdentityEvents() {
			fmt.Fprintf(h, "%v\n", e)
		}
		for _, pg := range s.PagingEvents() {
			fmt.Fprintf(h, "%v\n", pg)
		}
	}
	fmt.Fprintf(h, "victim cell=%d state=%v tmsi=%v\n", v.CellID, v.State, n.TMSIHistory(v))
	return hex.EncodeToString(h.Sum(nil))
}

// TestFabricWorkerCountInvariance is the fabric's central guarantee: a
// 128-cell run produces byte-identical observable output at every worker
// count, pinned against a golden digest so the serial semantics themselves
// cannot drift unnoticed. Regenerate testdata/fabric128.golden with
// -update only for an intentional semantic change.
func TestFabricWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("128-cell fabric run takes a few seconds; skipped with -short")
	}
	// On single-core hosts the fabric would cap itself back to one
	// worker; raise GOMAXPROCS so the parallel path (par.Workers handing
	// shards to goroutines, joined at every block) really executes — the
	// correctness claim is identical output, not wall-clock speedup.
	if old := runtime.GOMAXPROCS(0); old < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(old)
	}
	const cells = 128
	serial := fabricDigest(t, cells, 1)
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := fabricDigest(t, cells, w); got != serial {
			t.Fatalf("workers=%d digest %s diverged from serial %s", w, got, serial)
		}
	}
	golden := filepath.Join("testdata", "fabric128.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(serial+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(want)); got != serial {
		t.Fatalf("fabric digest %s diverged from golden %s", serial, got)
	}
}

// fabricPopulationDigest builds a fabric whose cells each carry a sparse
// background population on top of the victim's itinerary, runs it on the
// given worker count, and hashes everything observable. The run is long
// enough to cover the population's staggered attach churn, the resulting
// inactivity releases, and the first paging wakeups.
func fabricPopulationDigest(t *testing.T, nCells, popPerCell, workers int) string {
	t.Helper()
	n := network.New(1234)
	n.SetWorkers(workers)
	p := fabricProfile()
	srng := sim.NewRNG(0x90b)
	snifs := make([]*sniffer.Sniffer, 0, nCells)
	for id := 1; id <= nCells; id++ {
		c, err := n.AddCell(id, p)
		if err != nil {
			t.Fatal(err)
		}
		s := sniffer.New(sniffer.Config{}, srng.Fork())
		c.AddObserver(s)
		snifs = append(snifs, s)
	}
	for id := 1; id <= nCells; id++ {
		for i := 0; i < popPerCell; i++ {
			u := n.NewUE(fmt.Sprintf("pop-%d-%d", id, i))
			n.Camp(u, id)
			n.StartSparseBackground(u)
		}
	}
	apps := appmodel.Apps()
	v := n.NewUE("victim")
	n.Camp(v, 1)
	n.ScheduleSession(v, 1, apps[0], 500*time.Millisecond, 3*time.Second, 1)
	n.ScheduleMove(v, 2, 1500*time.Millisecond, true)
	n.Run(40 * time.Second)

	h := sha256.New()
	for i, s := range snifs {
		fmt.Fprintf(h, "cell %d\n", i+1)
		for _, r := range s.Records() {
			fmt.Fprintf(h, "%v\n", r)
		}
		for _, e := range s.IdentityEvents() {
			fmt.Fprintf(h, "%v\n", e)
		}
		for _, pg := range s.PagingEvents() {
			fmt.Fprintf(h, "%v\n", pg)
		}
	}
	fmt.Fprintf(h, "victim cell=%d state=%v tmsi=%v\n", v.CellID, v.State, n.TMSIHistory(v))
	return hex.EncodeToString(h.Sum(nil))
}

// TestFabricPopulationWorkerInvariance extends the invariance guarantee to
// population-scale cells: a fabric crowded with sparse background UEs must
// stay byte-identical at every worker count, pinned against a golden so
// the population semantics cannot drift unnoticed. Regenerate
// testdata/fabric_pop.golden with -update only for an intentional change.
func TestFabricPopulationWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("population fabric run takes a few seconds; skipped with -short")
	}
	if old := runtime.GOMAXPROCS(0); old < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(old)
	}
	const cells, pop = 8, 120
	serial := fabricPopulationDigest(t, cells, pop, 1)
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := fabricPopulationDigest(t, cells, pop, w); got != serial {
			t.Fatalf("workers=%d digest %s diverged from serial %s", w, got, serial)
		}
	}
	golden := filepath.Join("testdata", "fabric_pop.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(serial+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(want)); got != serial {
		t.Fatalf("population fabric digest %s diverged from golden %s", serial, got)
	}
}

// advanceAllocs reports the mean heap allocations of advancing n by two
// simulated seconds, over runs advances after one warm-up advance, with
// GOMAXPROCS set to procs. It is testing.AllocsPerRun without that
// function's GOMAXPROCS(1), which would cap the fabric at one worker and
// hide the parallel path.
func advanceAllocs(n *network.Network, procs, runs int) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	n.Run(n.Now() + 2*time.Second)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		n.Run(n.Now() + 2*time.Second)
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}

// TestOneCellWorkersAllocateNothingExtra pins that a worker count above
// one costs a one-cell network nothing: with a single shard the fabric
// steps it on the caller's goroutine, so a warm cell allocates the same
// per advance at SetWorkers(1) and SetWorkers(4), whatever GOMAXPROCS is.
// Every capture scenario has one cell, so a per-block fan-out allocation
// there would show in every capture.
func TestOneCellWorkersAllocateNothingExtra(t *testing.T) {
	for _, procs := range []int{1, 4} {
		var per [2]float64
		for i, workers := range []int{1, 4} {
			n := network.New(7)
			n.SetWorkers(workers)
			if _, err := n.AddCell(1, operator.TMobile()); err != nil {
				t.Fatal(err)
			}
			n.Run(4 * time.Second)
			per[i] = advanceAllocs(n, procs, 10)
		}
		if per[0] != per[1] {
			t.Errorf("GOMAXPROCS=%d: one-cell advance allocates %.0f at SetWorkers(1) but %.0f at SetWorkers(4)", procs, per[0], per[1])
		}
	}
}

// TestFabricCrossShardForwarding proves arrivals scheduled on one shard
// reach a UE that has since been handed to another cell: the originating
// shard forwards them through the mailbox instead of dropping them.
func TestFabricCrossShardForwarding(t *testing.T) {
	n := network.New(7)
	p := operator.Lab()
	for id := 1; id <= 2; id++ {
		if _, err := n.AddCell(id, p); err != nil {
			t.Fatal(err)
		}
	}
	v := n.NewUE("v")
	n.Camp(v, 1)
	app, err := appmodel.ByName("WhatsApp Call")
	if err != nil {
		t.Fatal(err)
	}
	n.ScheduleSession(v, 1, app, 100*time.Millisecond, 3*time.Second, 1)
	n.ScheduleMove(v, 2, 1*time.Second, true)
	n.Run(4 * time.Second)

	if v.CellID != 2 {
		t.Fatalf("victim cell = %d, want 2", v.CellID)
	}
	c1, _ := n.Cell(1)
	c2, _ := n.Cell(2)
	_, _, dl1, ul1 := c1.Stats()
	_, _, dl2, ul2 := c2.Stats()
	if dl1+ul1 == 0 {
		t.Fatal("no traffic through the source cell before handover")
	}
	if dl2+ul2 == 0 {
		t.Fatal("no forwarded traffic through the target cell after handover")
	}
}

// TestHandoverMidBurstContinuity hands a UE over in the middle of a VoIP
// call and checks the app traffic stays continuous on the merged two-cell
// timeline: the radio gap is bounded by the handover procedure plus one
// cross-shard mail interval, never a dropped stream.
func TestHandoverMidBurstContinuity(t *testing.T) {
	n := network.New(11)
	p := operator.Lab()
	srng := sim.NewRNG(0x51f)
	snifs := make([]*sniffer.Sniffer, 2)
	for id := 1; id <= 2; id++ {
		c, err := n.AddCell(id, p)
		if err != nil {
			t.Fatal(err)
		}
		snifs[id-1] = sniffer.New(sniffer.Config{}, srng.Fork())
		c.AddObserver(snifs[id-1])
	}
	v := n.NewUE("v")
	n.Camp(v, 1)
	app, err := appmodel.ByName("WhatsApp Call")
	if err != nil {
		t.Fatal(err)
	}
	const hoAt = 2 * time.Second
	n.ScheduleSession(v, 1, app, 500*time.Millisecond, 3*time.Second, 1)
	n.ScheduleMove(v, 2, hoAt, true)
	n.Run(4 * time.Second)

	if v.CellID != 2 || v.State != ue.Connected {
		t.Fatalf("victim cell=%d state=%v after mid-burst handover", v.CellID, v.State)
	}
	merged := snifs[0].Records()
	merged = append(merged, snifs[1].Records()...)
	merged.Sort()
	// VoIP keeps 20 ms frames flowing in both directions; across the
	// handover the worst admissible silence is the release-to-completion
	// procedure (~11 TTI) plus one mailbox interval (32 TTI) plus
	// scheduling slack.
	const maxGap = 250 * time.Millisecond
	var last time.Duration
	window := func(at time.Duration) bool { return at >= time.Second && at <= 3200*time.Millisecond }
	for _, r := range merged {
		if !window(r.At) {
			continue
		}
		if last != 0 && r.At-last > maxGap {
			t.Fatalf("traffic gap %v at %v spanning the handover, want < %v", r.At-last, r.At, maxGap)
		}
		last = r.At
	}
	if len(snifs[1].Records()) == 0 {
		t.Fatal("no records in the target cell")
	}
}

// TestTMSIHistoryConsistentAcrossCells moves a UE through three cells that
// all run fast GUTI reallocation and checks the history stays coherent: it
// keeps growing in every cell, the live TMSI is always the newest entry,
// and re-camping never double-arms the reallocation timer.
func TestTMSIHistoryConsistentAcrossCells(t *testing.T) {
	n := network.New(13)
	p := operator.Lab()
	p.GUTIReallocEvery = 500 * time.Millisecond
	for id := 1; id <= 3; id++ {
		if _, err := n.AddCell(id, p); err != nil {
			t.Fatal(err)
		}
	}
	v := n.NewUE("v")
	n.Camp(v, 1)
	n.ScheduleMove(v, 2, 1500*time.Millisecond, false)
	n.ScheduleMove(v, 3, 3*time.Second, false)
	const dur = 4500 * time.Millisecond
	n.Run(dur)

	hist := n.TMSIHistory(v)
	if len(hist) < 4 {
		t.Fatalf("TMSI history has %d entries after %v across 3 cells, want >= 4", len(hist), dur)
	}
	if !v.HasTMSI || v.TMSI != hist[len(hist)-1] {
		t.Fatalf("live TMSI %d is not the newest history entry %v", v.TMSI, hist)
	}
	seen := make(map[uint32]bool)
	for _, tm := range hist {
		if seen[uint32(tm)] {
			t.Fatalf("TMSI %d assigned twice in %v", tm, hist)
		}
		seen[uint32(tm)] = true
	}
	// One timer firing every 500 ms can produce at most dur/500ms fresh
	// TMSIs on top of the attach; more means re-camping armed extra timers.
	if max := 1 + int(dur/p.GUTIReallocEvery); len(hist) > max {
		t.Fatalf("TMSI history has %d entries, max %d for a single timer — reallocation double-armed", len(hist), max)
	}
}

// TestReselectionNeverDropsGrant pins the deferral semantics of idle-mode
// reselection: a move requested while the UE holds an RRC connection waits
// for the connection to end, and the source cell's observable schedule is
// byte-identical to a run with no move at all — not one scheduled subframe
// is dropped or displaced.
func TestReselectionNeverDropsGrant(t *testing.T) {
	run := func(withMove bool) (trace []string, cellID int, state ue.State) {
		n := network.New(17)
		p := operator.Lab()
		p.InactivityTimeout = 2 * time.Second
		for id := 1; id <= 2; id++ {
			if _, err := n.AddCell(id, p); err != nil {
				t.Fatal(err)
			}
		}
		c1, _ := n.Cell(1)
		s := sniffer.New(sniffer.Config{}, sim.NewRNG(0xabc))
		c1.AddObserver(s)
		v := n.NewUE("v")
		n.Camp(v, 1)
		app, err := appmodel.ByName("Netflix")
		if err != nil {
			t.Fatal(err)
		}
		n.ScheduleSession(v, 1, app, 500*time.Millisecond, 1500*time.Millisecond, 1)
		if withMove {
			// Mid-burst: the UE is connected with grants in flight.
			n.ScheduleMove(v, 2, 1*time.Second, false)
		}
		n.Run(5 * time.Second)
		for _, r := range s.Records() {
			trace = append(trace, fmt.Sprintf("%v", r))
		}
		return trace, v.CellID, v.State
	}

	base, baseCell, _ := run(false)
	moved, movedCell, movedState := run(true)
	if baseCell != 1 {
		t.Fatalf("baseline UE ended in cell %d", baseCell)
	}
	if movedCell != 2 || movedState != ue.Idle {
		t.Fatalf("reselection did not complete: cell=%d state=%v", movedCell, movedState)
	}
	if len(base) == 0 {
		t.Fatal("baseline sniffer saw no records")
	}
	if len(base) != len(moved) {
		t.Fatalf("source-cell schedule changed: %d records with move vs %d without", len(moved), len(base))
	}
	for i := range base {
		if base[i] != moved[i] {
			t.Fatalf("source-cell record %d changed: %q vs %q", i, moved[i], base[i])
		}
	}
}
