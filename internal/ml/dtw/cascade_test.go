package dtw_test

import (
	"math"
	"testing"

	"ltefp/internal/ml/dtw"
	"ltefp/internal/sim"
)

// normBand reproduces the internals Similarity applies to a pair: both
// series z-normalised and the 10% Sakoe-Chiba half-width.
func normBand(a, b []float64) (na, nb []float64, band int) {
	na, nb = dtw.Normalize(a), dtw.Normalize(b)
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	return na, nb, (n + 9) / 10
}

// TestSelfBoundsAreZero: every point sits inside its own envelope, so a
// series compared against itself must bound (and measure) distance zero.
func TestSelfBoundsAreZero(t *testing.T) {
	g := sim.NewRNG(10)
	for trial := 0; trial < 20; trial++ {
		s := dtw.NewSeries(series(g, 5+g.IntN(80)))
		if lb := dtw.LBKim(s, s); lb != 0 {
			t.Fatalf("LBKim(s, s) = %v", lb)
		}
		if lb := dtw.LBKeogh(s, s); lb != 0 {
			t.Fatalf("LBKeogh(s, s) = %v", lb)
		}
		al := dtw.NewAligner()
		if sim, stage := al.CascadeSimilarity(s, s, 0.99); stage != dtw.StageFull || sim != 1 {
			t.Fatalf("self cascade = (%v, %v), want (1, StageFull)", sim, stage)
		}
	}
}

// TestLowerBoundCascadeOrder: on random equal-length series the cascade's
// bounds must be ordered LB_Kim ≤ LB_Keogh ≤ banded DTW distance of the
// normalised series (the quantity Similarity thresholds).
func TestLowerBoundCascadeOrder(t *testing.T) {
	g := sim.NewRNG(11)
	al := dtw.NewAligner()
	for trial := 0; trial < 200; trial++ {
		n := 2 + g.IntN(120)
		sa := dtw.NewSeries(series(g, n))
		sb := dtw.NewSeries(series(g, n))
		kim := dtw.LBKim(sa, sb)
		keoghAB := dtw.LBKeogh(sa, sb)
		keoghBA := dtw.LBKeogh(sb, sa)
		_, _, band := normBand(sa.Raw(), sb.Raw())
		d := al.DistanceBand(dtw.Normalize(sa.Raw()), dtw.Normalize(sb.Raw()), band)
		if kim > keoghAB || kim > keoghBA {
			t.Fatalf("n=%d: LB_Kim %v above LB_Keogh (%v, %v)", n, kim, keoghAB, keoghBA)
		}
		slack := 1e-12 + 1e-12*d
		if keoghAB > d+slack || keoghBA > d+slack {
			t.Fatalf("n=%d: LB_Keogh (%v, %v) above banded DTW %v", n, keoghAB, keoghBA, d)
		}
		if kim > d+slack {
			t.Fatalf("n=%d: LB_Kim %v above banded DTW %v", n, kim, d)
		}
	}
}

// TestLBKeoghUnequalLengthsFallsBack: with unequal lengths the envelope
// bound is undefined under this construction; it must degrade to LBKim,
// which stays a valid bound.
func TestLBKeoghUnequalLengthsFallsBack(t *testing.T) {
	g := sim.NewRNG(12)
	sa := dtw.NewSeries(series(g, 40))
	sb := dtw.NewSeries(series(g, 55))
	if got, want := dtw.LBKeogh(sa, sb), dtw.LBKim(sa, sb); got != want {
		t.Fatalf("unequal-length LBKeogh = %v, want LBKim %v", got, want)
	}
	_, _, band := normBand(sa.Raw(), sb.Raw())
	d := dtw.DistanceBand(dtw.Normalize(sa.Raw()), dtw.Normalize(sb.Raw()), band)
	if kim := dtw.LBKim(sa, sb); kim > d+1e-12 {
		t.Fatalf("LBKim %v above banded DTW %v for unequal lengths", kim, d)
	}
}

// TestEarlyAbandonInfCutoffIsExact: with cutoff = +Inf the early-abandoning
// recurrence must return the DistanceBand result bit-for-bit.
func TestEarlyAbandonInfCutoffIsExact(t *testing.T) {
	g := sim.NewRNG(13)
	al := dtw.NewAligner()
	for trial := 0; trial < 100; trial++ {
		a := series(g, 1+g.IntN(90))
		b := series(g, 1+g.IntN(90))
		band := -1
		if trial%2 == 0 {
			band = g.IntN(12)
		}
		want := al.DistanceBand(a, b, band)
		got := al.DistanceBandEA(a, b, band, math.Inf(1))
		if got != want {
			t.Fatalf("EA(+Inf) = %v, DistanceBand = %v", got, want)
		}
	}
}

// TestEarlyAbandonConsistency: a finite EA result must equal DistanceBand
// exactly, and an abandoned comparison must have a true distance above the
// cutoff.
func TestEarlyAbandonConsistency(t *testing.T) {
	g := sim.NewRNG(14)
	al := dtw.NewAligner()
	abandoned, completed := 0, 0
	for trial := 0; trial < 200; trial++ {
		a := series(g, 30+g.IntN(40))
		b := series(g, 30+g.IntN(40))
		band := 4 + g.IntN(8)
		exact := al.DistanceBand(a, b, band)
		cutoff := exact * g.Uniform(0.2, 1.8)
		got := al.DistanceBandEA(a, b, band, cutoff)
		if math.IsInf(got, 1) {
			abandoned++
			if exact <= cutoff {
				t.Fatalf("abandoned although exact %v <= cutoff %v", exact, cutoff)
			}
		} else {
			completed++
			if got != exact {
				t.Fatalf("completed EA = %v, exact = %v", got, exact)
			}
		}
	}
	if abandoned == 0 || completed == 0 {
		t.Fatalf("degenerate trial mix: %d abandoned, %d completed", abandoned, completed)
	}
}

// TestCascadeSimilarityExact: for every stage outcome the cascade must be
// consistent with the unaccelerated Similarity — bit-identical when it runs
// to completion, provably below the threshold when it prunes.
func TestCascadeSimilarityExact(t *testing.T) {
	g := sim.NewRNG(15)
	al := dtw.NewAligner()
	ref := dtw.NewAligner()
	counts := map[dtw.Stage]int{}
	for trial := 0; trial < 300; trial++ {
		n := 2 + g.IntN(100)
		raw1, raw2 := series(g, n), series(g, n)
		if trial%5 == 0 { // near-identical pairs keep the survive path hot
			raw2 = append([]float64(nil), raw1...)
			for i := range raw2 {
				raw2[i] += g.Normal(0, 0.05)
			}
		}
		sa, sb := dtw.NewSeries(raw1), dtw.NewSeries(raw2)
		minSim := g.Uniform(0, 1)
		if trial%7 == 0 {
			minSim = 0
		}
		got, stage := al.CascadeSimilarity(sa, sb, minSim)
		want := ref.Similarity(raw1, raw2)
		counts[stage]++
		if stage == dtw.StageFull {
			if got != want {
				t.Fatalf("StageFull similarity %v != Similarity %v", got, want)
			}
		} else if want >= minSim {
			t.Fatalf("stage %v pruned a pair scoring %v >= threshold %v", stage, want, minSim)
		}
	}
	if counts[dtw.StageFull] == 0 {
		t.Fatal("cascade never completed a comparison")
	}
	if counts[dtw.StageLBKim]+counts[dtw.StageLBKeogh]+counts[dtw.StageAbandoned] == 0 {
		t.Fatal("cascade never pruned a comparison")
	}
}

// TestCascadeSimilarityEmpty: empty inputs keep Similarity's exact
// contract (score 0, no prune stage).
func TestCascadeSimilarityEmpty(t *testing.T) {
	al := dtw.NewAligner()
	empty := dtw.NewSeries(nil)
	full := dtw.NewSeries([]float64{1, 2, 3})
	if got, stage := al.CascadeSimilarity(empty, full, 0.5); got != 0 || stage != dtw.StageFull {
		t.Fatalf("empty series cascade = (%v, %v), want (0, StageFull)", got, stage)
	}
}

// TestDistanceCutoffRoundTrip: the threshold-to-cutoff conversion must be
// conservative — a distance at or below the true boundary never prunes.
func TestDistanceCutoffRoundTrip(t *testing.T) {
	g := sim.NewRNG(16)
	for trial := 0; trial < 500; trial++ {
		n := 10 + g.IntN(600)
		minSim := g.Uniform(1e-6, 1)
		cutoff := dtw.DistanceCutoff(minSim, n, n)
		// Any distance whose similarity clears the threshold must sit at or
		// below the cutoff — otherwise the cascade could prune a keeper.
		d := g.Uniform(0, 2*cutoff)
		if dtw.SimilarityFromDistance(d, n, n) >= minSim && d > cutoff {
			t.Fatalf("similarity %v >= %v but d %v > cutoff %v",
				dtw.SimilarityFromDistance(d, n, n), minSim, d, cutoff)
		}
	}
	if !math.IsInf(dtw.DistanceCutoff(0, 10, 10), 1) {
		t.Fatal("threshold 0 must disable pruning")
	}
	if !math.IsInf(dtw.DistanceCutoff(-1, 10, 10), 1) {
		t.Fatal("negative threshold must disable pruning")
	}
}

// TestStageString pins the funnel labels.
func TestStageString(t *testing.T) {
	want := map[dtw.Stage]string{
		dtw.StageFull:      "full",
		dtw.StageLBKim:     "lb_kim",
		dtw.StageLBKeogh:   "lb_keogh",
		dtw.StageAbandoned: "abandoned",
		dtw.Stage(200):     "unknown",
	}
	for s, w := range want {
		if s.String() != w {
			t.Fatalf("Stage(%d).String() = %q, want %q", s, s.String(), w)
		}
	}
}

// TestCascadeAllocs: the warmed cascade path — series prebuilt, aligner
// reused — must not allocate per comparison, same discipline as the plain
// aligner.
func TestCascadeAllocs(t *testing.T) {
	g := sim.NewRNG(17)
	x, y := series(g, 300), series(g, 300)
	sa, sb := dtw.NewSeries(x), dtw.NewSeries(y)
	na, nb := dtw.Normalize(x), dtw.Normalize(y)
	al := dtw.NewAligner()
	al.CascadeSimilarity(sa, sb, 0.5) // warm scratch
	if n := testing.AllocsPerRun(50, func() {
		al.CascadeSimilarity(sa, sb, 0.5)
		al.DistanceBandEA(na, nb, 30, math.Inf(1))
	}); n != 0 {
		t.Fatalf("cascade path allocates %.1f per run, want 0", n)
	}
	al.Similarity(x, y)
	if n := testing.AllocsPerRun(50, func() { al.Similarity(x, y) }); n != 0 {
		t.Fatalf("warmed Aligner.Similarity allocates %.1f per run, want 0", n)
	}
}
