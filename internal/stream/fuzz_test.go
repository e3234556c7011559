package stream_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"ltefp/internal/capture"
	"ltefp/internal/snapshot"
	"ltefp/internal/stream"
)

// FuzzCheckpointRestore holds the restore path to the never-trust rule:
// arbitrary section payloads go through the snapshot container, the
// checkpoint decoder and a pipeline restored from the result, and each
// input must either restore or return an error, never panic.
//
// The fuzzer mutates the four pipeline sections, not the container
// bytes: every container section carries a CRC, so a mutated container
// almost never reaches the checkpoint decoder (FuzzSnapshotDecode covers
// the container itself). The restored run's source is empty and starts at
// zero, so its cost is bounded by the checkpoint's own state, not by a
// fuzzed checkpoint time (a real restart re-simulates up to that time
// first).
func FuzzCheckpointRestore(f *testing.F) {
	clf := classifier(f)
	res, err := capture.Run(twoUserScenario(f, 23))
	if err != nil {
		f.Fatal(err)
	}
	var cuts []*stream.Checkpoint
	cfg := stream.Config{
		Classifier:      clf,
		CheckpointEvery: 3 * time.Second,
		OnCheckpoint:    func(c *stream.Checkpoint) { cuts = append(cuts, c) },
	}
	if _, err := stream.Run(context.Background(), &stream.ReplaySource{Trace: res.Records}, cfg); err != nil {
		f.Fatal(err)
	}
	if len(cuts) == 0 {
		f.Fatal("no checkpoint cut")
	}
	restore := func(raw []byte) (*stream.Stats, error) {
		sections, err := snapshot.ReadAll(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		c, err := stream.ReadCheckpoint(sections)
		if err != nil {
			return nil, err
		}
		return stream.Run(context.Background(), &stream.ReplaySource{},
			stream.Config{Classifier: clf, Restore: c})
	}
	// Every seed restores, so the mutations start from the accepting path.
	for _, c := range append(cuts, benchCheckpoint(clf), &stream.Checkpoint{}) {
		raw := encodeCheckpoint(f, c)
		if _, err := restore(raw); err != nil {
			f.Fatalf("seed checkpoint at %v does not restore: %v", c.Now, err)
		}
		sections, err := snapshot.ReadAll(bytes.NewReader(raw))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(sections[stream.SectionStats], sections[stream.SectionUsers],
			sections[stream.SectionVotes], sections[stream.SectionDrift])
	}

	f.Fuzz(func(t *testing.T, stats, users, votes, drift []byte) {
		var buf bytes.Buffer
		w, err := snapshot.NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []struct {
			name    string
			payload []byte
		}{
			{stream.SectionStats, stats},
			{stream.SectionUsers, users},
			{stream.SectionVotes, votes},
			{stream.SectionDrift, drift},
		} {
			if err := w.Section(s.name, s.payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if st, err := restore(buf.Bytes()); err == nil && st == nil {
			t.Fatal("restore succeeded without stats")
		}
	})
}
