package stream_test

import (
	"bytes"
	"context"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ltefp/internal/capture"
	"ltefp/internal/features"
	"ltefp/internal/lte/dci"
	"ltefp/internal/lte/rnti"
	"ltefp/internal/snapshot"
	"ltefp/internal/stream"
	"ltefp/internal/trace"
)

// encodeCheckpoint round-trips a checkpoint through the full snapshot
// container — bytes on the wire, not just structs in memory.
func encodeCheckpoint(t testing.TB, c *stream.Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AppendTo(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decodeCheckpoint(t *testing.T, raw []byte) *stream.Checkpoint {
	t.Helper()
	sections, err := snapshot.ReadAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	c, err := stream.ReadCheckpoint(sections)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCheckpointResumeByteIdentical is the package-level statement of the
// tentpole's success metric: cut a checkpoint mid-stream, serialise it
// through the container format, restore into a fresh pipeline fed the
// same post-checkpoint records, and every subsequent verdict — and the
// next checkpoint itself — is byte-identical to the uninterrupted run.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	clf := classifier(t)
	res, err := capture.Run(twoUserScenario(t, 23))
	if err != nil {
		t.Fatal(err)
	}

	const every = 3 * time.Second
	baseCfg := stream.Config{Classifier: clf, CheckpointEvery: every}

	var refVerdicts []stream.Verdict
	var refCkpts []*stream.Checkpoint
	cfg := baseCfg
	cfg.OnVerdict = func(v stream.Verdict) { refVerdicts = append(refVerdicts, v) }
	cfg.OnCheckpoint = func(c *stream.Checkpoint) { refCkpts = append(refCkpts, c) }
	refStats, err := stream.Run(context.Background(), &stream.ReplaySource{Trace: res.Records}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(refCkpts) < 2 {
		t.Fatalf("reference run cut %d checkpoints, want >= 2", len(refCkpts))
	}
	if len(refVerdicts) == 0 {
		t.Fatal("reference run produced no verdicts")
	}

	for i, ck := range refCkpts[:len(refCkpts)-1] {
		restored := decodeCheckpoint(t, encodeCheckpoint(t, ck))

		var gotVerdicts []stream.Verdict
		var gotCkpts [][]byte
		cfg := baseCfg
		cfg.Restore = restored
		cfg.OnVerdict = func(v stream.Verdict) { gotVerdicts = append(gotVerdicts, v) }
		cfg.OnCheckpoint = func(c *stream.Checkpoint) { gotCkpts = append(gotCkpts, encodeCheckpoint(t, c)) }
		src := &stream.ReplaySource{Trace: res.Records}
		src.FastForward(ck.Now)
		gotStats, err := stream.Run(context.Background(), src, cfg)
		if err != nil {
			t.Fatalf("checkpoint %d: resumed run: %v", i, err)
		}

		want := refVerdicts[ck.Stats.Verdicts:]
		if len(gotVerdicts) != len(want) {
			t.Fatalf("checkpoint %d (t=%v): resumed run emitted %d verdicts, want %d",
				i, ck.Now, len(gotVerdicts), len(want))
		}
		for j := range want {
			if gotVerdicts[j] != want[j] {
				t.Fatalf("checkpoint %d: verdict %d diverged:\n  got  %+v\n  want %+v",
					i, j, gotVerdicts[j], want[j])
			}
		}
		if *gotStats != *refStats {
			t.Errorf("checkpoint %d: final stats diverged:\n  got  %+v\n  want %+v", i, gotStats, refStats)
		}
		// The resumed pipeline's own checkpoints must be byte-identical to
		// the reference run's at the same cuts.
		wantCkpts := refCkpts[i+1:]
		if len(gotCkpts) != len(wantCkpts) {
			t.Fatalf("checkpoint %d: resumed run cut %d checkpoints, want %d", i, len(gotCkpts), len(wantCkpts))
		}
		for j := range wantCkpts {
			if !bytes.Equal(gotCkpts[j], encodeCheckpoint(t, wantCkpts[j])) {
				t.Fatalf("checkpoint %d: resumed checkpoint %d not byte-identical to reference", i, j)
			}
		}
	}
}

// TestCheckpointDeterministicBytes pins that equal state encodes to equal
// bytes: two identical runs must produce byte-identical checkpoint files.
func TestCheckpointDeterministicBytes(t *testing.T) {
	clf := classifier(t)
	res, err := capture.Run(twoUserScenario(t, 29))
	if err != nil {
		t.Fatal(err)
	}
	cut := func() []byte {
		var raw []byte
		cfg := stream.Config{
			Classifier:      clf,
			CheckpointEvery: 4 * time.Second,
			OnCheckpoint: func(c *stream.Checkpoint) {
				if raw == nil {
					raw = encodeCheckpoint(t, c)
				}
			},
		}
		if _, err := stream.Run(context.Background(), &stream.ReplaySource{Trace: res.Records}, cfg); err != nil {
			t.Fatal(err)
		}
		return raw
	}
	one, two := cut(), cut()
	if one == nil || !bytes.Equal(one, two) {
		t.Fatal("identical runs produced different checkpoint bytes")
	}
}

// randomCheckpoint builds a structurally valid checkpoint with randomised
// contents for the per-section round-trip property test. Its state is
// consistent the way a cut's is: buffered records carry their user's key,
// the Shed* stats are zero, and End, Users and OutOfOrder are the values
// ReadCheckpoint derives.
func randomCheckpoint(rng *rand.Rand, horizon int) *stream.Checkpoint {
	c := &stream.Checkpoint{
		Now: time.Duration(rng.Int64N(1e12)),
		Stats: stream.Stats{
			Records:        rng.Int64N(1e9),
			Rows:           rng.Int64N(1e9),
			Predictions:    rng.Int64N(1e9),
			Verdicts:       rng.Int64N(1e9),
			RetrainSignals: rng.Int64N(1e3),
		},
	}
	c.Stats.End = c.Now
	nUsers := int(rng.Int64N(5))
	for u := 0; u < nUsers; u++ {
		key := stream.Key{CellID: 1, RNTI: rnti.RNTI(100 + u)}
		st := features.IncrementalState{
			Width:      100 * time.Millisecond,
			Stride:     100 * time.Millisecond,
			Started:    rng.Int64N(2) == 1,
			Next:       time.Duration(rng.Int64N(1e10)),
			LastAt:     time.Duration(rng.Int64N(1e10)),
			PrevCount:  rng.Float64() * 100,
			PrevBytes:  rng.Float64() * 1e6,
			HasEvicted: rng.Int64N(2) == 1,
			EvictedAt:  time.Duration(rng.Int64N(1e10)),
			OutOfOrder: rng.Int64N(10),
		}
		for r := int(rng.Int64N(8)); r > 0; r-- {
			st.Buf = append(st.Buf, trace.Record{
				At:     time.Duration(rng.Int64N(1e10)),
				CellID: key.CellID,
				RNTI:   key.RNTI,
				Dir:    dci.Direction(1 + rng.Int64N(2)),
				Bytes:  int(rng.Int64N(1e5)),
			})
		}
		c.Users = append(c.Users, stream.UserState{Key: key, Inc: st})
		c.Stats.Users++
		c.Stats.OutOfOrder += st.OutOfOrder
	}
	nVotes := int(rng.Int64N(5))
	for v := 0; v < nVotes; v++ {
		fill := int(rng.Int64N(int64(horizon + 1)))
		pos := fill % horizon
		if fill == horizon {
			pos = int(rng.Int64N(int64(horizon)))
		}
		slots := make([]int16, horizon)
		for s := range slots {
			slots[s] = int16(rng.Int64N(9))
		}
		c.Votes = append(c.Votes, stream.VoteState{
			Key:          stream.Key{CellID: 1, RNTI: rnti.RNTI(100 + v)},
			Slots:        slots,
			Pos:          pos,
			Fill:         fill,
			DriftLatched: rng.Int64N(2) == 1,
		})
	}
	return c
}

// TestCheckpointSectionRoundTrip is the per-section property test: many
// randomised checkpoints, each encoded and decoded through the container,
// must round-trip every section exactly.
func TestCheckpointSectionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for i := 0; i < 200; i++ {
		c := randomCheckpoint(rng, 25)
		got := decodeCheckpoint(t, encodeCheckpoint(t, c))
		if !reflect.DeepEqual(c, got) {
			t.Fatalf("iteration %d: checkpoint did not round-trip:\n  in  %+v\n  out %+v", i, c, got)
		}
	}
}

// TestCheckpointRejectsDamage pins the failure modes: missing sections,
// truncated payloads, and structurally impossible values must all decode
// to explicit errors, never to silently wrong state.
func TestCheckpointRejectsDamage(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	c := randomCheckpoint(rng, 10)
	sections, err := snapshot.ReadAll(bytes.NewReader(encodeCheckpoint(t, c)))
	if err != nil {
		t.Fatal(err)
	}
	// Each vote ring ends with its drift latch, so the votes payload cut by
	// one byte below is cut inside a ring's drift byte.
	if len(c.Votes) == 0 {
		t.Fatal("fixture holds no vote ring")
	}
	for _, name := range []string{"stream.stats", "stream.users", "stream.votes"} {
		mutated := map[string][]byte{}
		for k, v := range sections {
			mutated[k] = v
		}
		delete(mutated, name)
		if _, err := stream.ReadCheckpoint(mutated); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("missing %s: err = %v, want mention of the section", name, err)
		}

		if len(sections[name]) > 0 {
			mutated[name] = sections[name][:len(sections[name])-1]
			if _, err := stream.ReadCheckpoint(mutated); err == nil {
				t.Errorf("truncated %s decoded successfully", name)
			}
		}
	}
}

// TestRestoreValidation pins that a checkpoint can only restore into a
// pipeline with matching parameters: its vote horizon must match the
// configuration's, its window geometry the classifier's.
func TestRestoreValidation(t *testing.T) {
	clf := classifier(t)
	res, err := capture.Run(twoUserScenario(t, 31))
	if err != nil {
		t.Fatal(err)
	}
	var ck *stream.Checkpoint
	cfg := stream.Config{
		Classifier:      clf,
		CheckpointEvery: 3 * time.Second,
		OnCheckpoint: func(c *stream.Checkpoint) {
			if ck == nil {
				ck = c
			}
		},
	}
	if _, err := stream.Run(context.Background(), &stream.ReplaySource{Trace: res.Records}, cfg); err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Fatal("no checkpoint cut")
	}

	bad := cfg
	bad.Restore = ck
	bad.VoteHorizon = 7 // checkpoint was cut at the default 50
	if _, err := stream.Run(context.Background(), &stream.ReplaySource{Trace: res.Records}, bad); err == nil ||
		!strings.Contains(err.Error(), "vote horizon") {
		t.Errorf("mismatched vote horizon: err = %v", err)
	}

	if len(ck.Users) == 0 {
		t.Fatal("checkpoint tracks no users")
	}
	// A user whose extractor was cut at another width than the
	// classifier's must not restore.
	wide := *ck
	wide.Users = append([]stream.UserState(nil), ck.Users...)
	wide.Users[0].Inc.Width *= 2
	bad = cfg
	bad.Restore = &wide
	if _, err := stream.Run(context.Background(), &stream.ReplaySource{Trace: res.Records}, bad); err == nil ||
		!strings.Contains(err.Error(), "window") {
		t.Errorf("mismatched window: err = %v", err)
	}
}

// TestRestoreRejectsImpossibleExtractorState applies the never-trust
// rule to a user's extractor state: a hand-built checkpoint that encodes
// and decodes cleanly, but holds records no extractor could have kept or
// a state no extractor could hold at the checkpoint's time, must fail the
// restore instead of yielding wrong rows or walking unbounded windows.
func TestRestoreRejectsImpossibleExtractorState(t *testing.T) {
	clf := classifier(t)
	const ms = time.Millisecond
	rec := func(at time.Duration) trace.Record {
		return trace.Record{At: at, CellID: 1, RNTI: 100, Dir: dci.Downlink, Bytes: 10}
	}
	restore := func(mutate func(*features.IncrementalState)) error {
		st := features.IncrementalState{
			Width: clf.Window, Stride: clf.Stride,
			Started: true, Next: 1200 * ms, LastAt: 1200 * ms,
			HasEvicted: true, EvictedAt: 900 * ms,
			Buf: []trace.Record{rec(1100 * ms), rec(1200 * ms)},
		}
		mutate(&st)
		c := &stream.Checkpoint{
			Now:   1300 * ms,
			Users: []stream.UserState{{Key: stream.Key{CellID: 1, RNTI: 100}, Inc: st}},
		}
		cfg := stream.Config{Classifier: clf, Restore: decodeCheckpoint(t, encodeCheckpoint(t, c))}
		_, err := stream.Run(context.Background(), &stream.ReplaySource{}, cfg)
		return err
	}
	if err := restore(func(*features.IncrementalState) {}); err != nil {
		t.Fatalf("consistent state rejected: %v", err)
	}
	for name, mutate := range map[string]func(*features.IncrementalState){
		"out of time order":    func(st *features.IncrementalState) { st.Buf[0], st.Buf[1] = st.Buf[1], st.Buf[0] },
		"after LastAt":         func(st *features.IncrementalState) { st.LastAt = 1150 * ms },
		"never started":        func(st *features.IncrementalState) { st.Started = false },
		"before evicted":       func(st *features.IncrementalState) { st.EvictedAt = 1150 * ms },
		"past the open window": func(st *features.IncrementalState) { st.Next = 1000 * ms },
	} {
		if err := restore(mutate); err == nil || !strings.Contains(err.Error(), "restoring incremental") {
			t.Errorf("%s: err = %v, want a rejected extractor state", name, err)
		}
	}
	// States an extractor could hold, but not at the checkpoint's time.
	for name, mutate := range map[string]func(*features.IncrementalState){
		"window before zero": func(st *features.IncrementalState) { st.Next = -100 * ms },
		"window past the cut": func(st *features.IncrementalState) {
			st.Next = 1300*ms + clf.Stride
		},
		"record after the cut": func(st *features.IncrementalState) {
			st.Next, st.LastAt = 1300*ms, 1350*ms
			st.Buf = append(st.Buf, rec(1350*ms))
		},
	} {
		if err := restore(mutate); err == nil || !strings.Contains(err.Error(), "not reachable") {
			t.Errorf("%s: err = %v, want a state unreachable at the checkpoint time", name, err)
		}
	}
}

// TestRecoverPanics pins pipeline resilience: a panic in the source or in
// a callback on the consumer side aborts the pipeline cleanly — Run
// returns the panic as an error naming the side that panicked, nothing
// deadlocks, and no goroutine outlives Run.
func TestRecoverPanics(t *testing.T) {
	clf := classifier(t)
	res, err := capture.Run(twoUserScenario(t, 37))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		src  func() stream.Source
		cfg  func(*stream.Config)
		want string
	}{
		{name: "assemble", want: "pipeline panicked", cfg: func(c *stream.Config) {
			n := 0
			c.TapWindow = func(stream.Key, time.Duration, []float64) {
				n++
				if n == 10 {
					panic("injected assemble fault")
				}
			}
		}},
		{name: "verdict", want: "pipeline panicked", cfg: func(c *stream.Config) {
			n := 0
			c.OnVerdict = func(stream.Verdict) {
				n++
				if n == 5 {
					panic("injected verdict fault")
				}
			}
		}},
		{name: "source", want: "source panicked", src: func() stream.Source {
			return &panickingSource{Source: &stream.ReplaySource{Trace: res.Records}, after: 20}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			cfg := stream.Config{Classifier: clf, RecoverPanics: true}
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			var src stream.Source = &stream.ReplaySource{Trace: res.Records}
			if tc.src != nil {
				src = tc.src()
			}
			_, err := stream.Run(context.Background(), src, cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %s", err, tc.want)
			}
			waitGoroutines(t, base)
		})
	}
}

// panickingSource panics in the Next call after `after` slices.
type panickingSource struct {
	stream.Source
	after, calls int
}

func (s *panickingSource) Next(dst trace.Trace) (trace.Trace, time.Duration, bool) {
	s.calls++
	if s.calls > s.after {
		panic("injected source fault")
	}
	return s.Source.Next(dst)
}
