package stream

import (
	"testing"

	"ltefp/internal/appmodel"
)

// newVoteRing builds one standalone ring; the pipeline carves its rings
// out of a ringSlab instead.
func newVoteRing(horizon, apps int) *voteRing {
	return &voteRing{
		slots:  make([]int16, horizon),
		counts: make([]int32, apps),
	}
}

// TestVoteRingMajority exercises fill, eviction, and running counts.
func TestVoteRingMajority(t *testing.T) {
	v := newVoteRing(4, 3)
	if _, conf := v.majority(); conf != 0 {
		t.Fatal("empty ring reported confidence")
	}
	for _, app := range []int{0, 0, 1, 0} {
		v.push(app)
	}
	app, conf := v.majority()
	if app != 0 || conf != 0.75 {
		t.Fatalf("majority = (%d, %v), want (0, 0.75)", app, conf)
	}
	// Ring is full: four more pushes of app 2 must fully evict the old
	// votes.
	for i := 0; i < 4; i++ {
		v.push(2)
	}
	app, conf = v.majority()
	if app != 2 || conf != 1 {
		t.Fatalf("after eviction majority = (%d, %v), want (2, 1)", app, conf)
	}
	for i, n := range v.counts {
		if want := int32(0); i == 2 {
			want = 4
		} else if n != want {
			t.Fatalf("counts[%d] = %d after eviction", i, n)
		}
	}
}

// TestVoteRingTieBreak pins the tie rule to appmodel table order (lower
// index wins), matching the batch path's PredictVectors.
func TestVoteRingTieBreak(t *testing.T) {
	v := newVoteRing(4, 3)
	v.push(2)
	v.push(1)
	v.push(1)
	v.push(2)
	if app, conf := v.majority(); app != 1 || conf != 0.5 {
		t.Fatalf("tie broke to (%d, %v), want lower index (1, 0.5)", app, conf)
	}
}

// TestDriftMonitorLatch pins the retrain gate: below-threshold confidence
// fires once per excursion, only with enough history, and re-arms after
// recovery.
func TestDriftMonitorLatch(t *testing.T) {
	const n = driftMinWindows
	d := driftMonitor{threshold: 0.70}
	if d.observe(0.10, n-1) {
		t.Fatal("fired below driftMinWindows")
	}
	if !d.observe(0.60, n) {
		t.Fatal("did not fire on first below-threshold reading")
	}
	if d.observe(0.50, n+1) || d.observe(0.40, n+2) {
		t.Fatal("re-fired while latched")
	}
	if d.observe(0.90, n+3) {
		t.Fatal("fired on recovery")
	}
	if !d.observe(0.69, n+4) {
		t.Fatal("did not re-fire after recovery and a new excursion")
	}
}

// TestAppTableMatchesCatalog: the vote index must be the appmodel table
// order, the order every majority tie-break in the repo uses.
func TestAppTableMatchesCatalog(t *testing.T) {
	tab := newAppTable()
	apps := appmodel.Apps()
	if len(tab.names) != len(apps) {
		t.Fatalf("table has %d apps, catalog %d", len(tab.names), len(apps))
	}
	for i, a := range apps {
		if tab.names[i] != a.Name || tab.index[a.Name] != i {
			t.Fatalf("table[%d] = %q (index %d), catalog says %q",
				i, tab.names[i], tab.index[a.Name], a.Name)
		}
	}
}
