package stream_test

import (
	"context"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/capture"
	"ltefp/internal/features"
	"ltefp/internal/lte/operator"
	"ltefp/internal/ml/forest"
	"ltefp/internal/obs"
	"ltefp/internal/sniffer"
	"ltefp/internal/stream"
	"ltefp/internal/trace"
)

func testApp(t testing.TB, name string) appmodel.App {
	t.Helper()
	a, err := appmodel.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// The classifier is expensive to train, so every test shares one, built
// the same way the fingerprint package's own tests do.
var (
	clfOnce sync.Once
	clf     *fingerprint.Classifier
	clfErr  error
)

func classifier(t testing.TB) *fingerprint.Classifier {
	t.Helper()
	clfOnce.Do(func() {
		ts := fingerprint.NewTrainingSet()
		for i, app := range appmodel.Apps() {
			n := 2
			if app.Category == appmodel.Messaging {
				n *= 3
			}
			vecs, err := fingerprint.Collect(fingerprint.CollectSpec{
				Profile:          operator.Lab(),
				App:              app,
				Sessions:         n,
				SessionDur:       20 * time.Second,
				Seed:             uint64(i+1) * 31,
				Sniffer:          sniffer.Config{CorruptProb: 0.002},
				ApplyProfileLoss: true,
			})
			if err != nil {
				clfErr = err
				return
			}
			if err := ts.Add(app.Name, vecs); err != nil {
				clfErr = err
				return
			}
		}
		clf, clfErr = fingerprint.Train(ts, fingerprint.Config{
			Forest: forest.Config{Trees: 20, Seed: 1},
		})
	})
	if clfErr != nil {
		t.Fatal(clfErr)
	}
	return clf
}

// twoUserScenario is the recorded capture the equivalence tests stream:
// two users running different apps in one lab cell, with mild corruption
// so the plausibility filter's held-back path is exercised.
func twoUserScenario(t testing.TB, seed uint64) capture.Scenario {
	t.Helper()
	return capture.Scenario{
		Seed:  seed,
		Cells: []capture.Cell{{ID: 1, Profile: operator.Lab()}},
		Sessions: []capture.Session{
			{UE: "alice", CellID: 1, App: testApp(t, "Skype"),
				Start: 200 * time.Millisecond, Duration: 12 * time.Second},
			{UE: "bob", CellID: 1, App: testApp(t, "YouTube"),
				Start: 500 * time.Millisecond, Duration: 12 * time.Second},
		},
		Sniffer: sniffer.Config{CorruptProb: 0.01},
	}
}

// perKey splits a time-ordered trace into per-user sub-traces, returning
// the keys sorted.
func perKey(tr trace.Trace) (map[stream.Key]trace.Trace, []stream.Key) {
	byKey := make(map[stream.Key]trace.Trace)
	for _, r := range tr {
		k := stream.Key{CellID: r.CellID, RNTI: r.RNTI}
		byKey[k] = append(byKey[k], r)
	}
	keys := make([]stream.Key, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].CellID != keys[j].CellID {
			return keys[i].CellID < keys[j].CellID
		}
		return keys[i].RNTI < keys[j].RNTI
	})
	return byKey, keys
}

// tapped is what the streaming pipeline produced for one user.
type tapped struct {
	starts []time.Duration
	rows   [][]float64
	apps   []string
}

// runStream streams src through the pipeline, recording every extracted
// window and every rolling verdict per user. VoteHorizon and
// MinVerdictWindows are pinned to 1 so each verdict is exactly the
// per-window prediction.
func runStream(t *testing.T, src stream.Source, c *fingerprint.Classifier, mutate func(*stream.Config)) (map[stream.Key]*tapped, *stream.Stats) {
	t.Helper()
	// TapWindow and OnVerdict both run on Run's caller goroutine, so the
	// map needs no lock.
	got := make(map[stream.Key]*tapped)
	at := func(k stream.Key) *tapped {
		u, ok := got[k]
		if !ok {
			u = &tapped{}
			got[k] = u
		}
		return u
	}
	cfg := stream.Config{
		Classifier:        c,
		VoteHorizon:       1,
		MinVerdictWindows: 1,
		TapWindow: func(k stream.Key, start time.Duration, row []float64) {
			u := at(k)
			u.starts = append(u.starts, start)
			u.rows = append(u.rows, append([]float64(nil), row...))
		},
		OnVerdict: func(v stream.Verdict) {
			at(v.Key).apps = append(at(v.Key).apps, v.App)
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	st, err := stream.Run(context.Background(), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return got, st
}

// offlineExpect runs the batch path over one user's sub-trace: offline
// window extraction plus batched forest prediction. The window starts are
// the ones the extractor emits when the whole sub-trace is pushed at once.
func offlineExpect(c *fingerprint.Classifier, sub trace.Trace) (starts []time.Duration, rows [][]float64, apps []string) {
	rows = features.FromTrace(sub, c.Window, c.Stride)
	inc := features.NewIncremental(c.Window, c.Stride)
	emit := func(start time.Duration, _ []float64) { starts = append(starts, start) }
	for _, r := range sub {
		inc.Push(r, emit)
	}
	inc.Flush(emit)
	apps = c.PredictBatch(rows)
	return starts, rows, apps
}

// compareUser asserts byte-identical windows and identical predictions for
// one user between the streamed and offline paths.
func compareUser(t *testing.T, k stream.Key, got *tapped, starts []time.Duration, rows [][]float64, apps []string) {
	t.Helper()
	if got == nil {
		if len(rows) != 0 {
			t.Fatalf("key %v: streamed nothing, offline has %d windows", k, len(rows))
		}
		return
	}
	if len(got.rows) != len(rows) {
		t.Fatalf("key %v: streamed %d windows, offline %d", k, len(got.rows), len(rows))
	}
	for i := range rows {
		if got.starts[i] != starts[i] {
			t.Fatalf("key %v window %d: start %v, offline %v", k, i, got.starts[i], starts[i])
		}
		for f := range rows[i] {
			if got.rows[i][f] != rows[i][f] {
				t.Fatalf("key %v window %d feature %s: streamed %v, offline %v",
					k, i, features.Names()[f], got.rows[i][f], rows[i][f])
			}
		}
	}
	if len(got.apps) != len(apps) {
		t.Fatalf("key %v: %d streamed predictions, offline %d", k, len(got.apps), len(apps))
	}
	for i := range apps {
		if got.apps[i] != apps[i] {
			t.Fatalf("key %v window %d: streamed %q, offline predicted %q", k, i, got.apps[i], apps[i])
		}
	}
}

// digest folds every window start, feature bit, and prediction — per user,
// in sorted key order — into one FNV-1a hash.
func digest(keys []stream.Key, starts map[stream.Key][]time.Duration, rows map[stream.Key][][]float64, apps map[stream.Key][]string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:8])
	}
	for _, k := range keys {
		put64(uint64(k.CellID))
		put64(uint64(k.RNTI))
		put64(uint64(len(rows[k])))
		for i, row := range rows[k] {
			put64(uint64(starts[k][i]))
			for _, f := range row {
				put64(math.Float64bits(f))
			}
		}
		for _, a := range apps[k] {
			h.Write([]byte(a))
		}
	}
	return h.Sum64()
}

// streamGolden pins the replay-equivalence artefacts: the digest of every
// window and prediction for twoUserScenario(seed 11) under the shared
// classifier. Recorded from the first passing run; a change means either
// the capture substrate, the feature pipeline, or the forest changed
// semantics — do not update it to make the test pass without knowing
// which.
const streamGolden uint64 = 0xfc8c8e3cb41a5fd2

// TestStreamMatchesOfflineReplay is the tentpole equivalence proof:
// streaming a recorded capture through the online pipeline yields
// byte-identical windows and identical predictions to the offline batch
// path, for every user, and the whole artefact matches a pinned golden
// digest.
func TestStreamMatchesOfflineReplay(t *testing.T) {
	c := classifier(t)
	res, err := capture.Run(twoUserScenario(t, 11))
	if err != nil {
		t.Fatal(err)
	}
	byKey, keys := perKey(res.Records)
	if len(keys) < 2 {
		t.Fatalf("scenario produced %d users, want >= 2", len(keys))
	}

	reg := obs.NewRegistry()
	got, st := runStream(t, &stream.ReplaySource{Trace: res.Records, Slice: 250 * time.Millisecond}, c,
		func(cfg *stream.Config) { cfg.Metrics = reg.Scope("stream") })

	allStarts := make(map[stream.Key][]time.Duration)
	allRows := make(map[stream.Key][][]float64)
	allApps := make(map[stream.Key][]string)
	var wantRows int64
	for _, k := range keys {
		starts, rows, apps := offlineExpect(c, byKey[k])
		compareUser(t, k, got[k], starts, rows, apps)
		allStarts[k], allRows[k], allApps[k] = starts, rows, apps
		wantRows += int64(len(rows))
	}

	if d := digest(keys, allStarts, allRows, allApps); d != streamGolden {
		t.Errorf("equivalence digest %#x, want golden %#x", d, streamGolden)
	}

	// Stats must account for every record and row, with nothing shed.
	if st.Records != int64(len(res.Records)) {
		t.Errorf("Stats.Records = %d, capture has %d", st.Records, len(res.Records))
	}
	if st.Rows != wantRows || st.Predictions != wantRows || st.Verdicts != wantRows {
		t.Errorf("Stats rows/predictions/verdicts = %d/%d/%d, want all %d",
			st.Rows, st.Predictions, st.Verdicts, wantRows)
	}
	if st.ShedRecords != 0 || st.ShedRows != 0 || st.ShedPredictions != 0 {
		t.Errorf("lossless run shed records/rows/predictions: %d/%d/%d",
			st.ShedRecords, st.ShedRows, st.ShedPredictions)
	}
	if st.OutOfOrder != 0 {
		t.Errorf("Stats.OutOfOrder = %d, want 0", st.OutOfOrder)
	}
	if st.Users != len(keys) {
		t.Errorf("Stats.Users = %d, want %d", st.Users, len(keys))
	}

	// The obs counters must agree with Stats — the pipeline never counts
	// privately what it does not also expose.
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"stream.source.records":          st.Records,
		"stream.source.shed_records":     0,
		"stream.assemble.rows":           st.Rows,
		"stream.assemble.out_of_order":   0,
		"stream.classify.predictions":    st.Predictions,
		"stream.verdict.verdicts":        st.Verdicts,
		"stream.verdict.retrain_signals": st.RetrainSignals,
	} {
		if got := snap.Counter(name); got != want {
			t.Errorf("obs %s = %d, Stats says %d", name, got, want)
		}
	}
}

// TestStreamLiveMatchesOffline closes the loop end to end: a live stepped
// simulation (capture.Live) streamed through the pipeline produces, per
// user, byte-identical windows and predictions to running the batch
// capture and the offline extractor on the same scenario. Cross-user
// interleaving differs between the two paths; per-user artefacts may not.
func TestStreamLiveMatchesOffline(t *testing.T) {
	c := classifier(t)
	sc := twoUserScenario(t, 23)
	res, err := capture.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	byKey, keys := perKey(res.Records)

	live, err := capture.NewLive(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	got, st := runStream(t, &stream.LiveSource{Live: live, Slice: 200 * time.Millisecond}, c, nil)

	for _, k := range keys {
		starts, rows, apps := offlineExpect(c, byKey[k])
		compareUser(t, k, got[k], starts, rows, apps)
	}
	if st.End != live.End() {
		t.Errorf("Stats.End = %v, scenario ends at %v", st.End, live.End())
	}
	if st.Records != int64(len(res.Records)) {
		t.Errorf("live streamed %d records, batch capture has %d", st.Records, len(res.Records))
	}
}

// TestStreamRequiresClassifier pins the config validation.
func TestStreamRequiresClassifier(t *testing.T) {
	_, err := stream.Run(context.Background(), &stream.ReplaySource{}, stream.Config{})
	if err == nil {
		t.Fatal("Run accepted a config without a classifier")
	}
}

// TestOutputIndependentOfBacklog runs one capture twice: once behind a
// slow source, so the consumer has usually caught up and classifies each
// slice on its own, and once with the consumer held at its first verdict
// until the source has queued dozens of slices, so rows from many slices
// share a classify call. Verdicts, checkpoint bytes and stats must not
// differ, and the held run must have made fewer classify calls.
func TestOutputIndependentOfBacklog(t *testing.T) {
	clf := classifier(t)
	res, err := capture.Run(twoUserScenario(t, 43))
	if err != nil {
		t.Fatal(err)
	}
	type output struct {
		verdicts []stream.Verdict
		ckpts    [][]byte
		st       *stream.Stats
		calls    int64
	}
	run := func(src stream.Source, hold func()) output {
		var out output
		reg := obs.NewRegistry()
		cfg := stream.Config{
			Classifier:      clf,
			CheckpointEvery: 2 * time.Second,
			Metrics:         reg.Scope("stream"),
			OnVerdict: func(v stream.Verdict) {
				if hold != nil {
					hold()
					hold = nil
				}
				out.verdicts = append(out.verdicts, v)
			},
			OnCheckpoint: func(c *stream.Checkpoint) { out.ckpts = append(out.ckpts, encodeCheckpoint(t, c)) },
		}
		if out.st, err = stream.Run(context.Background(), src, cfg); err != nil {
			t.Fatal(err)
		}
		h, _ := reg.Snapshot().Histogram("stream.classify.stage_ms")
		out.calls = h.Count
		return out
	}

	slow := run(&pacedSource{Source: &stream.ReplaySource{Trace: res.Records}, pause: time.Millisecond}, nil)
	counted := &pacedSource{Source: &stream.ReplaySource{Trace: res.Records}}
	held := run(counted, func() {
		for counted.calls.Load() < 40 && !counted.done.Load() {
			time.Sleep(time.Millisecond)
		}
	})

	if !reflect.DeepEqual(held.verdicts, slow.verdicts) {
		t.Errorf("verdicts differ: %d with a backlog, %d without", len(held.verdicts), len(slow.verdicts))
	}
	if len(slow.ckpts) < 2 || !reflect.DeepEqual(held.ckpts, slow.ckpts) {
		t.Errorf("checkpoints differ or too few: %d with a backlog, %d without", len(held.ckpts), len(slow.ckpts))
	}
	if *held.st != *slow.st {
		t.Errorf("stats differ:\n  backlog %+v\n  paced   %+v", held.st, slow.st)
	}
	t.Logf("classify calls: %d paced, %d held", slow.calls, held.calls)
	if held.calls >= slow.calls {
		t.Errorf("held run made %d classify calls, paced run %d: the backlog was not batched", held.calls, slow.calls)
	}
}

// pacedSource sleeps pause before each Next and counts the calls.
type pacedSource struct {
	stream.Source
	pause time.Duration
	calls atomic.Int64
	done  atomic.Bool
}

func (s *pacedSource) Next(dst trace.Trace) (trace.Trace, time.Duration, bool) {
	time.Sleep(s.pause)
	out, now, more := s.Source.Next(dst)
	s.calls.Add(1)
	s.done.Store(!more)
	return out, now, more
}
