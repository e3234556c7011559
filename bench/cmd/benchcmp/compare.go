package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"ltefp/bench/internal/result"
)

// minPairs is the fewest parent/change pairs a comparison accepts.
const minPairs = 10

// claimWins is the share of pairs a claimed metric must win.
const claimWins = 0.9

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// readDefs loads the end-to-end and per-layer metric declarations.
func readDefs(path string) (map[string]metricDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	defs := make(map[string]metricDef)
	for _, d := range append(doc.EndToEnd, doc.PerLayer...) {
		if d.Better != "lower" && d.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better is %q", path, d.Name, d.Better)
		}
		defs[d.Name] = d
	}
	return defs, nil
}

// stats summarises one side's values of a metric.
type stats struct {
	n           int
	q1, med, q3 float64
	lo, hi      float64
	relativeIQR float64 // (q3-q1)/median
	rate        float64 // error rate rows: failed/attempted over all runs
	failed      int
}

// quartiles are Python's statistics.quantiles(xs, n=4), exclusive method.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func summarize(xs []float64) stats {
	st := stats{n: len(xs)}
	st.q1, st.med, st.q3 = quartiles(xs)
	st.lo, st.hi = xs[0], xs[0]
	for _, x := range xs {
		st.lo, st.hi = math.Min(st.lo, x), math.Max(st.hi, x)
	}
	if st.med != 0 {
		st.relativeIQR = (st.q3 - st.q1) / math.Abs(st.med)
	}
	return st
}

// row is one workload's metric, summarised and, in a comparison, judged.
type row struct {
	workload, metric, unit string
	parent, change         stats
	wins, pairs            int
	verdict                string
	bound                  float64 // 0: none
}

// Verdicts a row can get. Only ok, improved, met and info pass.
const (
	vOK         = "ok"
	vImproved   = "improved"
	vRegressed  = "regressed"
	vUnresolved = "unresolved"
	vMet        = "met"
	vNotMet     = "not met"
	vFailed     = "failed" // a summarised set has failed ops
	vInfo       = "info"
)

func failing(verdict string) bool {
	return verdict == vRegressed || verdict == vUnresolved || verdict == vNotMet || verdict == vFailed
}

// group names the rows a run contributes to: its workload, with traced
// runs, which report per-layer metrics, kept apart.
func group(f *result.File) string {
	if f.Trace {
		return f.Workload + "/trace"
	}
	return f.Workload
}

// runKey pairs a parent run with the change run of the same inputs.
type runKey struct {
	group string
	seed  uint64
}

func index(files []*result.File) map[runKey]*result.File {
	m := make(map[runKey]*result.File, len(files))
	for _, f := range files {
		m[runKey{group(f), f.Seed}] = f
	}
	return m
}

// groupsOf lists the groups present, sorted.
func groupsOf(files []*result.File) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range files {
		if g := group(f); !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	sort.Strings(out)
	return out
}

// metricNames lists every metric the files carry, sorted, except the
// error rate, which errorRow pools over runs.
func metricNames(files []*result.File) []string {
	seen := map[string]bool{"error_rate": true}
	var out []string
	for _, f := range files {
		for name := range f.All() {
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// summarizeSet describes one set of runs: each workload's metrics, plus
// its error rate, with the spread checked against any declared bound.
func summarizeSet(files []*result.File, defs map[string]metricDef) []row {
	var rows []row
	for _, w := range groupsOf(files) {
		var mine []*result.File
		for _, f := range files {
			if group(f) == w {
				mine = append(mine, f)
			}
		}
		for _, name := range metricNames(mine) {
			var xs []float64
			unit := ""
			for _, f := range mine {
				if m, ok := f.All()[name]; ok {
					xs = append(xs, m.Value)
					unit = m.Unit
				}
			}
			r := row{workload: w, metric: name, unit: unit, parent: summarize(xs), verdict: vInfo}
			if d, ok := defs[name]; ok && d.Bound != nil {
				r.bound = *d.Bound
				r.verdict = vOK
				if r.parent.relativeIQR > r.bound {
					r.verdict = vUnresolved
				}
			}
			rows = append(rows, r)
		}
		rows = append(rows, errorRow(w, mine, nil))
	}
	return rows
}

// errorRow compares error rates; change may be nil in a summary.
func errorRow(w string, parent, change []*result.File) row {
	tally := func(files []*result.File) stats {
		var st stats
		attempted := 0
		for _, f := range files {
			st.failed += f.Failed
			attempted += f.Attempted
			st.n++
		}
		if attempted > 0 {
			st.rate = float64(st.failed) / float64(attempted)
		}
		st.med = st.rate
		return st
	}
	r := row{workload: w, metric: "error_rate", unit: "ratio", parent: tally(parent), verdict: vOK}
	if r.parent.failed > 0 {
		r.verdict = vFailed
	}
	if change != nil {
		r.change = tally(change)
		r.verdict = vOK
		if r.change.rate > r.parent.rate {
			r.verdict = vRegressed
		}
	}
	return r
}

// compare judges a change's runs against its parent's, paired by
// workload and seed. Claimed metrics ("workload:metric") must improve by
// the pair-win and IQR rule; every other metric with a bound must not get
// worse by more than it; error rates must not rise.
func compare(parent, change []*result.File, defs map[string]metricDef, claims map[string]bool) ([]row, error) {
	pi, ci := index(parent), index(change)
	var rows []row
	for _, w := range groupsOf(parent) {
		var keys []runKey
		for k := range pi {
			if k.group == w && ci[k] != nil {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a].seed < keys[b].seed })
		if len(keys) < minPairs {
			return nil, fmt.Errorf("%s: %d paired runs, need %d", w, len(keys), minPairs)
		}
		var pf, cf []*result.File
		for _, k := range keys {
			pf = append(pf, pi[k])
			cf = append(cf, ci[k])
		}
		for _, name := range metricNames(pf) {
			var ps, cs []float64
			unit := ""
			for i := range keys {
				pm, pok := pf[i].All()[name]
				cm, cok := cf[i].All()[name]
				if pok && cok {
					ps = append(ps, pm.Value)
					cs = append(cs, cm.Value)
					unit = pm.Unit
				}
			}
			if len(ps) == 0 {
				continue
			}
			rows = append(rows, judge(w, name, unit, ps, cs, defs[name], claims[w+":"+name]))
		}
		rows = append(rows, errorRow(w, pf, cf))
	}
	for c := range claims {
		found := false
		for _, r := range rows {
			found = found || r.workload+":"+r.metric == c
		}
		if !found {
			return nil, fmt.Errorf("claim %s: no such workload metric in both sets", c)
		}
	}
	return rows, nil
}

// judge gives one metric's verdict from paired values ps (parent) and cs
// (change).
func judge(w, name, unit string, ps, cs []float64, d metricDef, claimed bool) row {
	r := row{workload: w, metric: name, unit: unit, parent: summarize(ps), change: summarize(cs), pairs: len(ps), verdict: vInfo}
	if d.Better == "" {
		return r
	}
	better := func(c, p float64) bool {
		if d.Better == "lower" {
			return c < p
		}
		return c > p
	}
	for i := range ps {
		if better(cs[i], ps[i]) {
			r.wins++
		}
	}
	// allBetter: every change run beats every parent run.
	allBetter := better(r.change.hi, r.parent.lo)
	if d.Better == "higher" {
		allBetter = better(r.change.lo, r.parent.hi)
	}
	if claimed {
		r.verdict = vNotMet
		if float64(r.wins) >= claimWins*float64(r.pairs) && better(r.change.med, r.parent.med) &&
			math.Abs(r.change.med-r.parent.med) > r.parent.q3-r.parent.q1 {
			r.verdict = vMet
		}
		return r
	}
	if d.Bound == nil {
		return r
	}
	r.bound = *d.Bound
	worse := (r.change.med - r.parent.med) / math.Abs(r.parent.med)
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case allBetter:
		r.verdict = vImproved
	case math.Max(r.parent.relativeIQR, r.change.relativeIQR) > r.bound:
		r.verdict = vUnresolved
	case worse > r.bound:
		r.verdict = vRegressed
	default:
		r.verdict = vOK
	}
	return r
}
