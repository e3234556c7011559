package stream_test

import (
	"bytes"
	"context"
	"io"
	"math/rand/v2"
	"testing"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/features"
	"ltefp/internal/lte/dci"
	"ltefp/internal/lte/rnti"
	"ltefp/internal/snapshot"
	"ltefp/internal/stream"
	"ltefp/internal/trace"
)

// Fixture shape: a busy cell's checkpoint, as the daemon cuts it with
// the pipeline defaults.
const (
	benchUsers       = 64
	benchRecsPerUser = 32
	benchHorizon     = 50 // stream.Config's default vote horizon
	benchNow         = 90 * time.Second
)

// benchCheckpoint builds a checkpoint sized like a busy cell: many
// tracked users, each mid-window with a full vote ring. Every state in it
// is one a pipeline can reach: each extractor is the State of a real
// Incremental at the classifier's geometry, fed its user's last second of
// records, and the rings hold the default horizon of valid app indices.
func benchCheckpoint(clf *fingerprint.Classifier) *stream.Checkpoint {
	rng := rand.New(rand.NewPCG(42, 1))
	apps := len(appmodel.Apps())
	c := &stream.Checkpoint{
		Now: benchNow,
		Stats: stream.Stats{
			Records: 1e6, Rows: 1e4, Predictions: 1e4, Verdicts: 5e3,
			Users: benchUsers, End: benchNow,
		},
	}
	discard := func(time.Duration, []float64) {}
	for u := 0; u < benchUsers; u++ {
		key := stream.Key{CellID: 1, RNTI: rnti.RNTI(100 + u)}
		inc := features.NewIncremental(clf.Window, clf.Stride)
		for r := 0; r < benchRecsPerUser; r++ {
			inc.Push(trace.Record{
				At:     benchNow - time.Second + time.Duration(r)*time.Second/benchRecsPerUser,
				CellID: key.CellID,
				RNTI:   key.RNTI,
				Dir:    dci.Direction(1 + rng.Int64N(2)),
				Bytes:  int(rng.Int64N(1e5)),
			}, discard)
		}
		inc.AdvanceTo(benchNow, discard)
		c.Users = append(c.Users, stream.UserState{Key: key, Inc: inc.State()})
		slots := make([]int16, benchHorizon)
		for s := range slots {
			slots[s] = int16(rng.Int64N(int64(apps)))
		}
		c.Votes = append(c.Votes, stream.VoteState{
			Key: key, Slots: slots, Pos: u % benchHorizon, Fill: benchHorizon,
		})
	}
	return c
}

// restoreCheckpoint decodes a container and restarts a pipeline from it
// over an empty source positioned at the cut, the daemon's restart path
// up to its first post-checkpoint slice.
func restoreCheckpoint(raw []byte, clf *fingerprint.Classifier) (*stream.Stats, error) {
	sections, err := snapshot.ReadAll(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	c, err := stream.ReadCheckpoint(sections)
	if err != nil {
		return nil, err
	}
	src := &stream.ReplaySource{}
	src.FastForward(c.Now)
	return stream.Run(context.Background(), src, stream.Config{Classifier: clf, Restore: c})
}

// TestBenchCheckpointRestores keeps BenchmarkCheckpointRestore honest:
// its fixture must be a state the pipeline accepts, with every user's
// extractor and vote ring restored.
func TestBenchCheckpointRestores(t *testing.T) {
	clf := classifier(t)
	st, err := restoreCheckpoint(encodeCheckpoint(t, benchCheckpoint(clf)), clf)
	if err != nil {
		t.Fatalf("bench fixture does not restore: %v", err)
	}
	if st.Users != benchUsers {
		t.Fatalf("restored %d users, want %d", st.Users, benchUsers)
	}
	if st.End <= benchNow {
		t.Fatalf("restored run ended at %v, want past the cut at %v", st.End, benchNow)
	}
}

// BenchmarkCheckpointWrite measures serialising a 64-user pipeline
// checkpoint through the snapshot container — the cost the daemon pays
// at every checkpoint period, so it bounds how often checkpointing is
// affordable.
func BenchmarkCheckpointWrite(b *testing.B) {
	c := benchCheckpoint(classifier(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := snapshot.NewWriter(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.AppendTo(w); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointRestore measures the other direction, a daemon
// restart: parsing the container, rebuilding the checkpoint, and running
// the pipeline restored from it over an empty source, which rebuilds
// every user's extractor and vote ring and closes their open windows.
func BenchmarkCheckpointRestore(b *testing.B) {
	clf := classifier(b)
	raw := encodeCheckpoint(b, benchCheckpoint(clf))
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := restoreCheckpoint(raw, clf); err != nil {
			b.Fatal(err)
		}
	}
}
