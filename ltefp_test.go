package ltefp_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"ltefp"
	"ltefp/internal/obs"
)

func TestAppsAndNetworks(t *testing.T) {
	apps := ltefp.Apps()
	if len(apps) != 9 {
		t.Fatalf("%d apps", len(apps))
	}
	cats := map[string]int{}
	for _, a := range apps {
		cats[a.Category]++
	}
	if len(cats) != 3 {
		t.Fatalf("categories = %v", cats)
	}
	nets := ltefp.Networks()
	if len(nets) != 4 || nets[0] != "Lab" {
		t.Fatalf("networks = %v", nets)
	}
}

// TestCaptureValidation pins that both single-victim paths validate their
// options the same way: an invalid name or defense never reaches a
// capture, batch or streaming.
func TestCaptureValidation(t *testing.T) {
	fp := trainTiny(t)
	for name, opts := range map[string]ltefp.CaptureOptions{
		"unknown app":     {App: "Snapchat"},
		"unknown network": {Network: "Sprint", App: "Netflix"},
		// 500 µs truncates to zero TTIs: an undefended capture that
		// claims to be defended.
		"sub-TTI constant rate": {App: "Skype", Defenses: ltefp.Defense{ConstantRatePeriod: 500 * time.Microsecond, ConstantRateBytes: 100}},
		"negative RNTI refresh": {App: "Skype", Defenses: ltefp.Defense{RNTIRefresh: -time.Second}},
		"dummy burst odds > 1":  {App: "Skype", Defenses: ltefp.Defense{DummyBurstProb: 2, DummyBurstMaxBytes: 100}},
	} {
		opts.Duration = 2 * time.Second
		if _, err := ltefp.Capture(opts); err == nil {
			t.Errorf("%s: Capture accepted %+v", name, opts)
		}
		if _, err := ltefp.LiveCapture(context.Background(), ltefp.LiveOptions{Capture: opts, Model: fp}); err == nil {
			t.Errorf("%s: LiveCapture accepted %+v", name, opts)
		}
	}
}

func TestCaptureBasics(t *testing.T) {
	res, err := ltefp.Capture(ltefp.CaptureOptions{
		App:      "Skype",
		Duration: 15 * time.Second,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Victim) == 0 || len(res.All) == 0 || len(res.Bindings) == 0 {
		t.Fatalf("capture = %d victim / %d all / %d bindings",
			len(res.Victim), len(res.All), len(res.Bindings))
	}
	var dl, ul int
	for _, r := range res.Victim {
		if r.Bytes <= 0 {
			t.Fatal("non-positive record size")
		}
		if r.Downlink {
			dl++
		} else {
			ul++
		}
	}
	if dl == 0 || ul == 0 {
		t.Fatalf("VoIP capture has dl=%d ul=%d", dl, ul)
	}
}

func TestCaptureDownlinkOnly(t *testing.T) {
	res, err := ltefp.Capture(ltefp.CaptureOptions{
		App:          "Skype",
		Duration:     10 * time.Second,
		Seed:         3,
		DownlinkOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Victim {
		if !r.Downlink {
			t.Fatal("downlink-only capture recorded uplink")
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	res, err := ltefp.Capture(ltefp.CaptureOptions{
		App: "WhatsApp", Duration: 20 * time.Second, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ltefp.WriteCSV(&buf, res.Victim); err != nil {
		t.Fatal(err)
	}
	got, err := ltefp.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(res.Victim) {
		t.Fatalf("round trip: %d -> %d records", len(res.Victim), len(got))
	}
	for i := range got {
		if got[i] != res.Victim[i] {
			t.Fatalf("record %d changed in round trip", i)
		}
	}
}

// trainTiny builds a small lab fingerprinter once for the API tests.
func trainTiny(t *testing.T) *ltefp.Fingerprinter {
	t.Helper()
	td, err := ltefp.CollectTraining(ltefp.TrainingOptions{
		SessionsPerApp:  2,
		SessionDuration: 30 * time.Second,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range ltefp.Apps() {
		if td.Count(a.Name) == 0 {
			t.Fatalf("no training windows for %s", a.Name)
		}
	}
	fp, err := ltefp.TrainFingerprinter(td, 1)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestFingerprintWorkflow(t *testing.T) {
	fp := trainTiny(t)
	cap, err := ltefp.Capture(ltefp.CaptureOptions{
		App: "YouTube", Duration: 30 * time.Second, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := fp.Identify(cap.Victim)
	if id.App != "YouTube" {
		t.Fatalf("identified %q (confidence %.2f)", id.App, id.Confidence)
	}
	if id.Category != "Streaming" {
		t.Fatalf("category %q", id.Category)
	}
	if id.Windows == 0 || id.Confidence <= 0 {
		t.Fatalf("degenerate identification %+v", id)
	}
	empty := fp.Identify(nil)
	if empty.App != "" || empty.Windows != 0 {
		t.Fatalf("empty trace identified as %+v", empty)
	}
}

// TestLiveCaptureWorkflow exercises the streaming attack through the
// public API: verdicts form while the capture runs, converge on the
// victim's app, and the stats and health books balance.
func TestLiveCaptureWorkflow(t *testing.T) {
	fp := trainTiny(t)
	if _, err := ltefp.LiveCapture(context.Background(), ltefp.LiveOptions{}); err == nil {
		t.Fatal("LiveCapture accepted options without a model")
	}
	var verdicts []ltefp.LiveVerdict
	st, err := ltefp.LiveCapture(context.Background(), ltefp.LiveOptions{
		Capture: ltefp.CaptureOptions{
			App: "Skype", Duration: 20 * time.Second, Seed: 77,
		},
		Model:     fp,
		OnVerdict: func(v ltefp.LiveVerdict) { verdicts = append(verdicts, v) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) == 0 {
		t.Fatal("live capture raised no verdicts")
	}
	last := verdicts[len(verdicts)-1]
	if last.App != "Skype" || last.Category != "VoIP call" {
		t.Fatalf("final verdict %q/%q (confidence %.2f), want the victim's Skype",
			last.App, last.Category, last.Confidence)
	}
	if last.Confidence < 0.7 {
		t.Fatalf("final confidence %.2f below the paper's stability gate", last.Confidence)
	}
	if st.Users == 0 || st.Records == 0 || st.Rows == 0 {
		t.Fatalf("degenerate stats %+v", st)
	}
	if st.Verdicts != int64(len(verdicts)) {
		t.Fatalf("Stats.Verdicts = %d, callback saw %d", st.Verdicts, len(verdicts))
	}
	if st.Health.Captured == 0 {
		t.Fatal("live health reports nothing captured")
	}

	// Cancelling up front still drains cleanly and reports the error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ltefp.LiveCapture(ctx, ltefp.LiveOptions{
		Capture: ltefp.CaptureOptions{App: "Skype", Duration: 5 * time.Second},
		Model:   fp,
	}); err == nil {
		t.Fatal("cancelled LiveCapture reported no error")
	}
}

func TestFingerprinterSaveLoad(t *testing.T) {
	fp := trainTiny(t)
	var buf bytes.Buffer
	if err := fp.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ltefp.LoadFingerprinter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cap, err := ltefp.Capture(ltefp.CaptureOptions{
		App: "Skype", Duration: 20 * time.Second, Seed: 88,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := fp.Identify(cap.Victim)
	b := loaded.Identify(cap.Victim)
	if a != b {
		t.Fatalf("loaded model diverges: %+v vs %+v", a, b)
	}
}

func TestHistoryAttackAPI(t *testing.T) {
	fp := trainTiny(t)
	report, err := fp.HistoryAttack(ltefp.HistoryOptions{
		Zones: []int{1, 2},
		Seed:  5,
		Itinerary: []ltefp.Visit{
			{Zone: 1, Day: 1, Start: 2 * time.Second, Duration: 30 * time.Second, App: "Netflix"},
			{Zone: 2, Day: 1, Start: 40 * time.Second, Duration: 30 * time.Second, App: "Skype"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Findings) != 2 {
		t.Fatalf("%d findings", len(report.Findings))
	}
	if report.SuccessRate() < 0.5 {
		t.Fatalf("lab history attack success %.2f", report.SuccessRate())
	}
	if _, err := fp.HistoryAttack(ltefp.HistoryOptions{
		Zones:     []int{1},
		Itinerary: []ltefp.Visit{{Zone: 1, Day: 1, App: "Nope", Duration: time.Second}},
	}); err == nil {
		t.Fatal("unknown itinerary app accepted")
	}
}

func TestCorrelationAPI(t *testing.T) {
	ev, err := ltefp.CollectContactPairs("Lab", "WhatsApp Call", 3, 20*time.Second, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 6 {
		t.Fatalf("%d evidence samples", len(ev))
	}
	det, err := ltefp.TrainContactDetector(ev, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Training-set predictions on clean lab pairs should be coherent.
	right := 0
	for _, e := range ev {
		if det.Detect(e) == e.Communicating {
			right++
		}
	}
	if right < 5 {
		t.Fatalf("detector got %d/6 on its own training data", right)
	}
	if _, err := ltefp.CollectContactPairs("Lab", "Netflix", 1, time.Second, 1); err == nil {
		t.Fatal("streaming app accepted for correlation")
	}
}

// sweepRecords builds a deterministic per-user record stream: bursty
// uplink/downlink traffic whose phase and size depend on the user index,
// so distinct users disagree and the sweep has something to prune.
func sweepRecords(u int, seconds int) []ltefp.Record {
	var recs []ltefp.Record
	for ms := 0; ms < seconds*1000; ms += 40 + 7*(u%5) {
		down := (ms/100+u)%3 != 0
		size := 90 + (u*37+ms/50)%900
		recs = append(recs, ltefp.Record{
			At: time.Duration(ms) * time.Millisecond, CellID: 1,
			RNTI: uint16(0x100 + u), Downlink: down, Bytes: size,
		})
	}
	return recs
}

// TestContactSweepAPI: the population sweep must agree byte-for-byte with
// pairwise Correlate, echo user IDs, and apply the detector when given.
func TestContactSweepAPI(t *testing.T) {
	const n, seconds = 8, 20
	span := time.Duration(seconds) * time.Second
	users := make([]ltefp.SweepUser, n)
	for u := range users {
		users[u] = ltefp.SweepUser{ID: string(rune('A' + u)), Records: sweepRecords(u, seconds)}
	}
	findings, err := ltefp.ContactSweep(users, ltefp.ContactSweepOptions{End: span})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != n*(n-1)/2 {
		t.Fatalf("%d findings, want %d", len(findings), n*(n-1)/2)
	}
	for _, f := range findings {
		want, err := ltefp.Correlate(users[f.A].Records, users[f.B].Records, 0, span)
		if err != nil {
			t.Fatal(err)
		}
		if f.Evidence != want {
			t.Fatalf("pair (%d,%d): sweep evidence %+v != pairwise %+v", f.A, f.B, f.Evidence, want)
		}
		if f.AID != users[f.A].ID || f.BID != users[f.B].ID {
			t.Fatalf("pair (%d,%d): IDs %q/%q", f.A, f.B, f.AID, f.BID)
		}
	}

	// A threshold may only remove low-similarity pairs, never change a
	// surviving pair's evidence.
	const minSim = 0.5
	pruned, err := ltefp.ContactSweep(users, ltefp.ContactSweepOptions{
		End: span, MinSimilarity: minSim, Workers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	kept := map[[2]int]ltefp.ContactEvidence{}
	for _, f := range findings {
		if f.Evidence.Similarity >= minSim {
			kept[[2]int{f.A, f.B}] = f.Evidence
		}
	}
	if len(pruned) != len(kept) {
		t.Fatalf("threshold sweep kept %d pairs, want %d", len(pruned), len(kept))
	}
	for _, f := range pruned {
		if want, ok := kept[[2]int{f.A, f.B}]; !ok || f.Evidence != want {
			t.Fatalf("threshold sweep pair (%d,%d) wrong or unexpected", f.A, f.B)
		}
	}

	// Detector wiring: scores must match scoring the evidence directly.
	samples := make([]ltefp.ContactEvidence, 0, 10)
	for i := 0; i < 5; i++ {
		samples = append(samples,
			ltefp.ContactEvidence{Similarity: 0.9 - 0.02*float64(i), ByteSimilarity: 0.8, CrossUD: 0.7, VolumeRatio: 0.9, Communicating: true},
			ltefp.ContactEvidence{Similarity: 0.2 + 0.02*float64(i), ByteSimilarity: 0.1, CrossUD: 0.1, VolumeRatio: 0.4, Communicating: false},
		)
	}
	det, err := ltefp.TrainContactDetector(samples, 3)
	if err != nil {
		t.Fatal(err)
	}
	scored, err := ltefp.ContactSweep(users, ltefp.ContactSweepOptions{End: span, Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range scored {
		if f.Score != det.Score(f.Evidence) || f.Detected != det.Detect(f.Evidence) {
			t.Fatalf("pair (%d,%d): detector outputs not wired through", f.A, f.B)
		}
	}
}

func TestContactSweepValidation(t *testing.T) {
	users := []ltefp.SweepUser{
		{ID: "a", Records: sweepRecords(0, 2)},
		{ID: "b", Records: sweepRecords(1, 2)},
	}
	if _, err := ltefp.ContactSweep(users, ltefp.ContactSweepOptions{}); err == nil {
		t.Fatal("empty span accepted")
	}
	if _, err := ltefp.ContactSweep(users, ltefp.ContactSweepOptions{End: time.Second, TopK: -1}); err == nil {
		t.Fatal("negative TopK accepted")
	}
	none, err := ltefp.ContactSweep(users[:1], ltefp.ContactSweepOptions{End: time.Second})
	if err != nil || len(none) != 0 {
		t.Fatalf("single-user sweep = (%v, %v), want empty", none, err)
	}
}

func TestCorrelateRejectsDegenerateSpan(t *testing.T) {
	recs := []ltefp.Record{{At: time.Second, Bytes: 100}}
	if _, err := ltefp.Correlate(recs, recs, 5*time.Second, 5*time.Second); err == nil {
		t.Fatal("empty span accepted")
	}
	if _, err := ltefp.Correlate(recs, recs, 8*time.Second, 2*time.Second); err == nil {
		t.Fatal("inverted span accepted")
	}
	if _, err := ltefp.Correlate(recs, recs, 0, 10*time.Second); err != nil {
		t.Fatalf("valid span rejected: %v", err)
	}
}

func TestDefenseOptionsAPI(t *testing.T) {
	// Concealed identities must deny attribution through the public API.
	open, err := ltefp.Capture(ltefp.CaptureOptions{
		App: "WhatsApp", Duration: 20 * time.Second, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	concealed, err := ltefp.Capture(ltefp.CaptureOptions{
		App: "WhatsApp", Duration: 20 * time.Second, Seed: 12,
		Defenses: ltefp.Defense{ConcealIdentities: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(open.Victim) == 0 {
		t.Fatal("baseline capture attributed nothing")
	}
	if len(concealed.Bindings) != 0 {
		t.Fatalf("concealment leaked %d bindings", len(concealed.Bindings))
	}
	if len(concealed.Victim) != 0 {
		t.Fatalf("concealment still attributed %d records", len(concealed.Victim))
	}
	// RNTI refresh: the victim's records (attributed before the first
	// refresh) cover far less of the session than the baseline's.
	refreshed, err := ltefp.Capture(ltefp.CaptureOptions{
		App: "Skype", Duration: 30 * time.Second, Seed: 13,
		Defenses: ltefp.Defense{RNTIRefresh: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := ltefp.Capture(ltefp.CaptureOptions{
		App: "Skype", Duration: 30 * time.Second, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(refreshed.Victim) >= len(baseline.Victim)/2 {
		t.Fatalf("RNTI refresh left %d of %d records attributable",
			len(refreshed.Victim), len(baseline.Victim))
	}
}

func TestCostAPI(t *testing.T) {
	p := ltefp.DefaultCostParams()
	b, err := ltefp.AttackCost(p, 30)
	if err != nil {
		t.Fatal(err)
	}
	if b.Total <= b.OneOff {
		t.Fatal("30-day total not above the one-off cost")
	}
	if b.RecordedInstances != p.TrainApps*p.VersionsPerApp*p.InstancesPerApp {
		t.Fatal("A_n wrong")
	}
	p.TrainApps = 0
	if _, err := ltefp.AttackCost(p, 30); err == nil {
		t.Fatal("invalid params accepted")
	}
}

// TestMetricsCaptureAllocationFree guards the enabled-mode instrumentation
// cost: after the registry's metrics are registered by a first run, a
// metrics-on capture must allocate no more than a metrics-off capture of
// the same scenario (the counters and histograms update preallocated
// atomics only). A tolerance of 1 absorbs AllocsPerRun jitter from runtime
// background allocation.
func TestMetricsCaptureAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	reg := obs.NewRegistry()
	run := func(m *obs.Registry) {
		_, err := ltefp.Capture(ltefp.CaptureOptions{
			Network:  "T-Mobile",
			App:      "YouTube",
			Duration: 5 * time.Second,
			Seed:     9,
			Metrics:  m,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	run(reg) // register every metric once
	off := testing.AllocsPerRun(10, func() { run(nil) })
	on := testing.AllocsPerRun(10, func() {
		reg.Reset()
		run(reg)
	})
	if on > off+1 {
		t.Fatalf("metrics-on capture allocates %v objects/run vs %v metrics-off (delta %v), want ~0",
			on, off, on-off)
	}
}
