package correlation

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"ltefp/internal/ml/dtw"
	"ltefp/internal/obs"
	"ltefp/internal/par"
	"ltefp/internal/trace"
)

// UserTrace is one observed user in a many-user contact sweep: an opaque
// identifier (RNTI, TMSI, or an attacker-assigned label) and the user's
// radio-layer trace.
type UserTrace struct {
	ID    string
	Trace trace.Trace
}

// SweepConfig parameterises Sweep.
type SweepConfig struct {
	// Bin is the similarity window T_w (0 = DefaultBin).
	Bin time.Duration
	// Start and End bound the common observation span [Start, End).
	Start, End time.Duration
	// MinSimilarity is the contact decision threshold on the frame-rate DTW
	// similarity (the paper's Table VI quantity): pairs scoring below it
	// are not reported. It is also the cascade's pruning lever — the
	// threshold is converted to a distance cutoff so most pairs are
	// rejected by LB_Kim, LB_Keogh, or early abandoning without a full DTW,
	// and never with a changed score. 0 keeps (and fully scores) all pairs.
	MinSimilarity float64
	// TopK caps reported contacts per user: a pair is kept only if it ranks
	// in the top K of at least one of its endpoints, ordered by similarity
	// (ties broken by pair index). 0 = unlimited.
	TopK int
	// Workers is the shard count (0 = GOMAXPROCS).
	Workers int
	// Model optionally scores every surviving pair through the trained
	// contact classifier (the PairEvidence → logreg path).
	Model *Model
}

// Contact is one surviving pair of a sweep.
type Contact struct {
	// A and B index the users slice passed to Sweep, with A < B.
	A, B int
	// Evidence is byte-identical to PairEvidenceWith on the same traces.
	Evidence Evidence
	// Score and Detected are the Model outputs (zero when no model is set).
	Score    float64
	Detected bool
}

// Sweep runs all-pairs contact discovery over the users' common span: each
// user's comparison series are built exactly once, the O(n²) pair space is
// sharded across workers (one DTW aligner per goroutine), and each pair
// goes through the LB_Kim → LB_Keogh → early-abandon cascade before any
// full DTW. Exactness is the contract: the returned contacts — membership,
// order, and every Evidence bit — equal what the brute-force nested
// PairEvidenceWith loop over the same inputs produces, for any worker
// count. Pairs are reported with A < B, sorted by (A, B).
func Sweep(users []UserTrace, cfg SweepConfig) ([]Contact, error) {
	if cfg.Bin <= 0 {
		cfg.Bin = DefaultBin
	}
	if cfg.End <= cfg.Start {
		return nil, fmt.Errorf("correlation: sweep span [%v, %v) is empty", cfg.Start, cfg.End)
	}
	if cfg.TopK < 0 {
		return nil, fmt.Errorf("correlation: negative TopK %d", cfg.TopK)
	}
	if len(users) < 2 {
		return nil, nil
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Stage 1: per-user series, built once and shared read-only by every
	// shard. The dtw.Series carries the precomputed normalisation and
	// Sakoe-Chiba envelopes the cascade's lower bounds feed on.
	prep := make([]sweepUser, len(users))
	_ = par.For(len(users), workers, func(i int) error { // never fails
		s := buildSide(users[i].Trace, cfg.Bin, cfg.Start, cfg.End)
		prep[i] = sweepUser{side: s, rate: dtw.NewSeries(s.rate)}
		return nil
	})

	// Stage 2: shard the pair space by row. Each shard pulls rows from
	// par's counter (cheap dynamic balancing: early rows hold more pairs),
	// accumulates contacts and funnel tallies locally, and flushes once.
	m := activeMetrics.Load()
	rows := len(users) - 1
	shards := make([][]Contact, min(workers, rows))
	par.Workers(rows, workers, func(w int, next func() (int, bool)) {
		var timer obs.Timer
		if m != nil {
			timer = m.stageMS.Start()
		}
		al := dtw.NewAligner()
		var local []Contact
		var funnel sweepFunnel
		for i, ok := next(); ok; i, ok = next() {
			for j := i + 1; j < len(users); j++ {
				funnel.pairs++
				ev, ok := cascadeEvidence(al, &prep[i], &prep[j], cfg.MinSimilarity, &funnel)
				if !ok {
					continue
				}
				c := Contact{A: i, B: j, Evidence: ev}
				if cfg.Model != nil {
					c.Score = cfg.Model.Score(ev)
					c.Detected = cfg.Model.Predict(ev)
				}
				local = append(local, c)
			}
		}
		shards[w] = local
		funnel.flush(m)
		timer.Stop()
	})

	total := 0
	for _, s := range shards {
		total += len(s)
	}
	out := make([]Contact, 0, total)
	for _, s := range shards {
		out = append(out, s...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return topKFilter(out, len(users), cfg.TopK), nil
}

// sweepUser is one user's prepared comparison state.
type sweepUser struct {
	side
	rate *dtw.Series
}

// cascadeEvidence compares two prepared users through the lower-bound
// cascade. It reports (evidence, true) only for pairs whose frame-rate
// similarity reaches minSim, and that evidence is byte-identical to
// PairEvidenceWith's: a surviving cascade computes the identical banded
// DTW distance, and the remaining features never depend on the pruning.
func cascadeEvidence(al *dtw.Aligner, a, b *sweepUser, minSim float64, f *sweepFunnel) (Evidence, bool) {
	sim, stage := al.CascadeSimilarity(a.rate, b.rate, minSim)
	switch stage {
	case dtw.StageLBKim:
		f.lbKim++
		return Evidence{}, false
	case dtw.StageLBKeogh:
		f.lbKeogh++
		return Evidence{}, false
	case dtw.StageAbandoned:
		f.abandoned++
		return Evidence{}, false
	}
	f.fullDTW++
	if sim < minSim {
		return Evidence{}, false
	}
	f.kept++
	return finishEvidence(al, &a.side, &b.side, sim), true
}

// topKFilter keeps contacts ranking in the top k of at least one endpoint,
// ordered by similarity with pair index breaking ties — a deterministic
// rule, so the result is independent of shard scheduling. k = 0 keeps all.
// Contacts must arrive (and leave) sorted by (A, B).
func topKFilter(contacts []Contact, users, k int) []Contact {
	if k <= 0 || len(contacts) == 0 {
		return contacts
	}
	per := make([][]int, users) // contact indices per endpoint
	for i, c := range contacts {
		per[c.A] = append(per[c.A], i)
		per[c.B] = append(per[c.B], i)
	}
	keep := make([]bool, len(contacts))
	for _, idx := range per {
		if len(idx) > k {
			sort.SliceStable(idx, func(x, y int) bool {
				sx, sy := contacts[idx[x]].Evidence.Similarity, contacts[idx[y]].Evidence.Similarity
				if sx != sy {
					return sx > sy
				}
				return idx[x] < idx[y]
			})
			idx = idx[:k]
		}
		for _, i := range idx {
			keep[i] = true
		}
	}
	out := contacts[:0]
	for i, c := range contacts {
		if keep[i] {
			out = append(out, c)
		}
	}
	return out
}
