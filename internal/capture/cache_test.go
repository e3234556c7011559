package capture

import (
	"sync"
	"testing"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/artifact"
	"ltefp/internal/lte/operator"
	"ltefp/internal/obs"
	"ltefp/internal/sniffer"
)

// testScenario is a small, fast scenario used throughout the cache tests.
func testScenario() Scenario {
	app, err := appmodel.ByName("YouTube")
	if err != nil {
		panic(err)
	}
	return Scenario{
		Seed:  11,
		Cells: []Cell{{ID: 1, Profile: operator.Lab()}},
		Sessions: []Session{{
			UE:       "victim",
			CellID:   1,
			App:      app,
			Start:    200 * time.Millisecond,
			Duration: 3 * time.Second,
		}},
		Sniffer:          sniffer.Config{CorruptProb: 0.002},
		ApplyProfileLoss: true,
	}
}

func resetCacheT(t *testing.T) {
	t.Helper()
	artifact.Default.Reset()
	t.Cleanup(artifact.Default.Reset)
}

// cacheStats reads the shared store's counters: the capture kind's, and
// the store-wide snapshot whose Entries and BytesUsed cover every kind.
func cacheStats() (artifact.KindStats, artifact.Stats) {
	all := artifact.Default.ReadStats()
	return all.PerKind[artifact.KindCapture], all
}

func TestRunCachedHitReturnsSameCapture(t *testing.T) {
	resetCacheT(t)
	sc := testScenario()
	first, err := RunCached(sc)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunCached(sc)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("second RunCached of an identical scenario returned a different *Capture")
	}
	st, _ := cacheStats()
	if st.MemHits != 1 || st.Misses != 1 || st.Bypasses != 0 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 0 bypasses", st)
	}
}

func TestRunCachedMatchesRunByteForByte(t *testing.T) {
	resetCacheT(t)
	sc := testScenario()
	cached, err := RunCached(sc)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(cached.Records) != len(fresh.Records) {
		t.Fatalf("cached capture has %d records, fresh run %d", len(cached.Records), len(fresh.Records))
	}
	for i := range cached.Records {
		if cached.Records[i] != fresh.Records[i] {
			t.Fatalf("record %d differs: cached %+v, fresh %+v", i, cached.Records[i], fresh.Records[i])
		}
	}
	if cached.Dropped != fresh.Dropped || cached.Health != fresh.Health {
		t.Fatal("capture health diverged between cached and fresh run")
	}
	ct := cached.UserTrace("victim")
	ft := fresh.UserTrace("victim")
	if len(ct) != len(ft) {
		t.Fatalf("victim trace length %d cached vs %d fresh", len(ct), len(ft))
	}
	for i := range ct {
		if ct[i] != ft[i] {
			t.Fatalf("victim trace record %d differs", i)
		}
	}
}

// TestScenarioKeySensitivity proves every simulation-relevant scenario field
// participates in the cache key: each mutation below must produce a key
// distinct from the base scenario's (and from every other mutation's).
func TestScenarioKeySensitivity(t *testing.T) {
	base := testScenario()
	otherApp, err := appmodel.ByName("WhatsApp")
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*Scenario){
		"seed":             func(sc *Scenario) { sc.Seed++ },
		"settle":           func(sc *Scenario) { sc.Settle = 5 * time.Second },
		"profile":          func(sc *Scenario) { sc.Cells[0].Profile = operator.TMobile() },
		"profile field":    func(sc *Scenario) { sc.Cells[0].Profile.PRBs += 25 },
		"cell id":          func(sc *Scenario) { sc.Cells[0].ID = 2; sc.Sessions[0].CellID = 2 },
		"extra cell":       func(sc *Scenario) { sc.Cells = append(sc.Cells, Cell{ID: 2, Profile: operator.Lab()}) },
		"profile loss off": func(sc *Scenario) { sc.ApplyProfileLoss = false },
		"sniffer loss":     func(sc *Scenario) { sc.Sniffer.LossProb = 0.05 },
		"sniffer corrupt":  func(sc *Scenario) { sc.Sniffer.CorruptProb = 0.01 },
		"downlink only":    func(sc *Scenario) { sc.Sniffer.DownlinkOnly = true },
		"uplink only":      func(sc *Scenario) { sc.Sniffer.UplinkOnly = true },
		"session ue":       func(sc *Scenario) { sc.Sessions[0].UE = "other" },
		"session app":      func(sc *Scenario) { sc.Sessions[0].App = otherApp },
		"session start":    func(sc *Scenario) { sc.Sessions[0].Start = time.Second },
		"session duration": func(sc *Scenario) { sc.Sessions[0].Duration = 4 * time.Second },
		"drift day":        func(sc *Scenario) { sc.Sessions[0].Day = 7 },
		"extra session": func(sc *Scenario) {
			sc.Sessions = append(sc.Sessions, Session{UE: "noise", CellID: 1, App: otherApp, Duration: time.Second})
		},
		"arrivals instead of app": func(sc *Scenario) {
			sc.Sessions[0].Arrivals = []appmodel.Arrival{{At: time.Second, Bytes: 100}}
		},
	}
	baseKey, ok := ScenarioKey(base)
	if !ok {
		t.Fatal("base scenario not hashable")
	}
	seen := map[artifact.Key]string{baseKey: "<base>"}
	for name, mutate := range mutations {
		sc := testScenario()
		// Deep-copy the slices the mutations touch so they are independent.
		sc.Cells = append([]Cell(nil), sc.Cells...)
		sc.Sessions = append([]Session(nil), sc.Sessions...)
		mutate(&sc)
		key, ok := ScenarioKey(sc)
		if !ok {
			t.Errorf("%s: scenario not hashable", name)
			continue
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("%s: key collides with %s", name, prev)
			continue
		}
		seen[key] = name
	}
}

func TestScenarioKeyStable(t *testing.T) {
	a, ok1 := ScenarioKey(testScenario())
	b, ok2 := ScenarioKey(testScenario())
	if !ok1 || !ok2 || a != b {
		t.Fatal("identical scenarios produced different keys")
	}
}

func TestScenarioKeyUnhashable(t *testing.T) {
	sc := testScenario()
	sc.Sessions[0].App = appmodel.App{} // no registry identity, no arrivals
	if _, ok := ScenarioKey(sc); ok {
		t.Fatal("scenario with an anonymous generator app must not be hashable")
	}
}

// TestRunCachedMetricsCountComputedWork pins the one-path contract: a
// metrics-enabled scenario goes through the store, the simulating call
// records sniffer counters, and a repeat is a memory hit that returns the
// same capture and records nothing (served work shows only in the store's
// counters).
func TestRunCachedMetricsCountComputedWork(t *testing.T) {
	resetCacheT(t)
	sc := testScenario()
	reg := obs.NewRegistry()
	sc.Metrics = reg.Scope("pipeline")
	first, err := RunCached(sc)
	if err != nil {
		t.Fatal(err)
	}
	st, all := cacheStats()
	if st.Misses != 1 || st.MemHits != 0 || st.Bypasses != 0 || all.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss, 0 hits, 0 bypasses, 1 entry", st)
	}
	// The instrumentation must have actually measured the simulation.
	snap := reg.Snapshot()
	records := snap.Counter("pipeline.cell1.sniffer.records")
	candidates := snap.Counter("pipeline.cell1.sniffer.candidates")
	if records == 0 || candidates == 0 {
		t.Fatalf("metrics-enabled simulation recorded %d records, %d candidates; want both > 0", records, candidates)
	}

	second, err := RunCached(sc)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("metrics-enabled repeat returned a different *Capture")
	}
	st, _ = cacheStats()
	if st.Misses != 1 || st.MemHits != 1 || st.Bypasses != 0 {
		t.Fatalf("stats = %+v, want 1 miss, 1 hit, 0 bypasses", st)
	}
	snap = reg.Snapshot()
	if got := snap.Counter("pipeline.cell1.sniffer.records"); got != records {
		t.Errorf("served repeat moved sniffer.records %d -> %d", records, got)
	}
	if got := snap.Counter("pipeline.cell1.sniffer.candidates"); got != candidates {
		t.Errorf("served repeat moved sniffer.candidates %d -> %d", candidates, got)
	}
}

func TestRunCachedDisabled(t *testing.T) {
	resetCacheT(t)
	prev := artifact.Default.SetMemoryBudget(0)
	defer artifact.Default.SetMemoryBudget(prev)
	sc := testScenario()
	a, err := RunCached(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCached(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("disabled cache still shared a capture")
	}
	st, all := cacheStats()
	if st.Bypasses != 2 || all.Entries != 0 {
		t.Fatalf("stats = %+v, want 2 bypasses and no entries", st)
	}
}

func TestRunCachedEviction(t *testing.T) {
	resetCacheT(t)
	scs := make([]Scenario, 3)
	for i := range scs {
		scs[i] = testScenario()
		scs[i].Seed = uint64(100 + i)
	}
	// Size one capture to derive a byte budget admitting two of the three
	// (the scenarios differ only by seed, so their footprints are close).
	if _, err := RunCached(scs[0]); err != nil {
		t.Fatal(err)
	}
	one := artifact.Default.ReadStats().BytesUsed
	if one <= 0 {
		t.Fatalf("cached capture accounted %d bytes, want > 0", one)
	}
	artifact.Default.Reset()
	prev := artifact.Default.SetMemoryBudget(one*2 + one/2)
	defer artifact.Default.SetMemoryBudget(prev)

	first, err := RunCached(scs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs[1:] {
		if _, err := RunCached(sc); err != nil {
			t.Fatal(err)
		}
	}
	st, all := cacheStats()
	if all.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, %d entries, want 2 entries after 1 eviction", st, all.Entries)
	}
	if all.BytesUsed > one*2+one/2 {
		t.Fatalf("bytes used %d exceeds the %d budget", all.BytesUsed, one*2+one/2)
	}
	// scs[0] was the least recently used entry; re-running it must miss.
	again, err := RunCached(scs[0])
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Fatal("evicted capture was still served from the cache")
	}
}

// TestRunCachedConcurrent hammers the cache from many goroutines (run under
// -race in make check): every caller of the same scenario must observe the
// same *Capture, with exactly one simulation behind it.
func TestRunCachedConcurrent(t *testing.T) {
	resetCacheT(t)
	sc := testScenario()
	const goroutines = 16
	results := make([]*Capture, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := RunCached(sc)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = c
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent RunCached calls returned different captures")
		}
	}
	st, _ := cacheStats()
	if st.Misses != 1 || st.MemHits != goroutines-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", st, goroutines-1)
	}
}
