package fingerprint_test

import (
	"bytes"
	"testing"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/lte/operator"
	"ltefp/internal/ml/forest"
	"ltefp/internal/sniffer"
)

// collectAll records a small lab corpus for every app (cached per test run
// via the outer test structure — collection is fast on the lab profile).
func collectAll(t *testing.T, sessions int, dur time.Duration) map[string][][]float64 {
	t.Helper()
	out := make(map[string][][]float64)
	for i, app := range appmodel.Apps() {
		n := sessions
		if app.Category == appmodel.Messaging {
			n *= 3
		}
		vecs, err := fingerprint.Collect(fingerprint.CollectSpec{
			Profile:          operator.Lab(),
			App:              app,
			Sessions:         n,
			SessionDur:       dur,
			Seed:             uint64(i+1) * 31,
			Sniffer:          sniffer.Config{CorruptProb: 0.002},
			ApplyProfileLoss: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(vecs) == 0 {
			t.Fatalf("%s: no windows collected", app.Name)
		}
		out[app.Name] = vecs
	}
	return out
}

func trainSmall(t *testing.T, byApp map[string][][]float64) *fingerprint.Classifier {
	t.Helper()
	ts := fingerprint.NewTrainingSet()
	for app, vecs := range byApp {
		cut := len(vecs) * 4 / 5
		if err := ts.Add(app, vecs[:cut]); err != nil {
			t.Fatal(err)
		}
	}
	clf, err := fingerprint.Train(ts, fingerprint.Config{
		Forest: forest.Config{Trees: 30, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return clf
}

func TestEndToEndLabAccuracy(t *testing.T) {
	byApp := collectAll(t, 3, 40*time.Second)
	clf := trainSmall(t, byApp)
	test := make(map[string][][]float64)
	for app, vecs := range byApp {
		test[app] = vecs[len(vecs)*4/5:]
	}
	conf, err := clf.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if acc := conf.Accuracy(); acc < 0.80 {
		t.Fatalf("lab window accuracy = %.3f, want ≥ 0.80 even at toy scale\n%s", acc, conf)
	}
}

func TestPredictTraceMajorityVote(t *testing.T) {
	byApp := collectAll(t, 3, 40*time.Second)
	clf := trainSmall(t, byApp)
	// A fresh Skype session must be identified with strong confidence.
	traces, err := fingerprint.CollectTraces(fingerprint.CollectSpec{
		Profile:    operator.Lab(),
		App:        mustApp(t, "Skype"),
		Sessions:   1,
		SessionDur: 30 * time.Second,
		Seed:       999,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := clf.PredictTrace(traces[0])
	if p.App != "Skype" {
		t.Fatalf("predicted %q (confidence %.2f)", p.App, p.Confidence)
	}
	if p.Confidence < 0.5 || p.Windows == 0 {
		t.Fatalf("weak prediction: %+v", p)
	}
	votes := 0
	for _, v := range p.Votes {
		votes += v
	}
	if votes != p.Windows {
		t.Fatalf("votes %d != windows %d", votes, p.Windows)
	}
}

func TestPredictEmptyTrace(t *testing.T) {
	byApp := collectAll(t, 2, 20*time.Second)
	clf := trainSmall(t, byApp)
	p := clf.PredictTrace(nil)
	if p.App != "" || p.Windows != 0 || p.Confidence != 0 {
		t.Fatalf("empty trace predicted %+v", p)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	byApp := collectAll(t, 2, 20*time.Second)
	clf := trainSmall(t, byApp)
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := fingerprint.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Window != clf.Window || loaded.Stride != clf.Stride {
		t.Fatal("windowing parameters lost")
	}
	for app, vecs := range byApp {
		want, got := clf.PredictBatch(vecs), loaded.PredictBatch(vecs)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: loaded model diverges", app)
			}
		}
	}
}

func TestTrainingSetRejectsUnknownApp(t *testing.T) {
	ts := fingerprint.NewTrainingSet()
	if err := ts.Add("Snapchat", nil); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestTrainRequiresAllApps(t *testing.T) {
	ts := fingerprint.NewTrainingSet()
	if err := ts.Add("Netflix", [][]float64{make([]float64, 25)}); err != nil {
		t.Fatal(err)
	}
	if _, err := fingerprint.Train(ts, fingerprint.Config{}); err == nil {
		t.Fatal("training with missing apps accepted")
	}
}

func TestCollectValidation(t *testing.T) {
	if _, err := fingerprint.Collect(fingerprint.CollectSpec{}); err == nil {
		t.Fatal("zero-session collect accepted")
	}
}

func mustApp(t *testing.T, name string) appmodel.App {
	t.Helper()
	a, err := appmodel.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
