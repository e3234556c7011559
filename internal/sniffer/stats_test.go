package sniffer_test

import (
	"math"
	"testing"
	"time"

	"ltefp/internal/obs"
	"ltefp/internal/sim"
	"ltefp/internal/sniffer"
)

// TestLossRateMatchesModel checks the capture-loss model statistically:
// over a large capture with LossProb=p, the miss rate reported by the obs
// counters must land inside the 4σ binomial confidence interval around p.
// The run is seeded, so a failure means the model or the counters drifted,
// not bad luck.
func TestLossRateMatchesModel(t *testing.T) {
	const p = 0.2
	reg := obs.NewRegistry()
	s := sniffer.New(sniffer.Config{LossProb: p, Metrics: reg.Scope("sniffer")}, sim.NewRNG(101))
	b := newBench(t, s)
	// Stream deliveries across the run: each grant carries kilobytes, so a
	// single burst would finish in ~100 subframes — far too few candidates
	// for a tight confidence interval.
	for i := 0; i < 50; i++ {
		b.cell.DeliverDL(b.u, 300000, b.now)
		b.cell.DeliverUL(b.u, 120000, b.now)
		b.run(400 * time.Millisecond)
	}

	snap := reg.Snapshot()
	n := snap.Counter("sniffer.candidates")
	lost := snap.Counter("sniffer.lost")
	st := s.Stats()
	if st.Candidates != n || st.Dropped != lost {
		t.Fatalf("Stats (%d scanned, %d dropped) disagrees with obs counters (%d, %d)",
			st.Candidates, st.Dropped, n, lost)
	}
	if n < 1000 {
		t.Fatalf("capture too small for a binomial test: %d candidates", n)
	}
	phat := float64(lost) / float64(n)
	sigma := math.Sqrt(p * (1 - p) / float64(n))
	if diff := math.Abs(phat - p); diff > 4*sigma {
		t.Errorf("observed loss rate %.4f is outside the 4σ interval around %.2f (n=%d, σ=%.5f)",
			phat, p, n, sigma)
	}
}

// TestNoCorruptionMeansNoRejects checks the converse guarantee: with
// CorruptProb=0 a capture produces no corrupted payloads, no corruption
// leaks, and — because every real record traces to a persistently active
// RNTI — zero plausibility rejects.
func TestNoCorruptionMeansNoRejects(t *testing.T) {
	reg := obs.NewRegistry()
	s := sniffer.New(sniffer.Config{Metrics: reg.Scope("sniffer")}, sim.NewRNG(102))
	b := newBench(t, s)
	b.cell.DeliverDL(b.u, 100000, b.now)
	b.run(3 * time.Second)
	validated := s.AppendValidated(nil, 3)
	if len(validated) == 0 {
		t.Fatal("capture produced no validated records")
	}
	snap := reg.Snapshot()
	for _, name := range []string{"sniffer.corrupted", "sniffer.corrupt_caught", "sniffer.corrupt_leaked", "sniffer.plausibility_rejects"} {
		if v := snap.Counter(name); v != 0 {
			t.Errorf("CorruptProb=0 but %s = %d", name, v)
		}
	}
	if len(validated) != len(s.Records()) {
		t.Errorf("plausibility filter removed %d of %d records without corruption",
			len(s.Records())-len(validated), len(s.Records()))
	}
}
