package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ltefp/bench/internal/result"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 0.5, 2.2, 9.0, 4.4}, 1.35, 3.1, 6.7},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, m, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(m-c.m) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

var testDefs = map[string]metricDef{
	"op_s":    {Name: "op_s", Unit: "s", Better: "lower", Bound: ptr(0.10)},
	"setup_s": {Name: "setup_s", Unit: "s", Better: "lower", Bound: ptr(0.25)},
	"hits":    {Name: "hits", Unit: "count", Better: "higher"},
}

func ptr(v float64) *float64 { return &v }

// set builds ten runs of one workload whose metric values come from f.
func set(workload string, failed int, f func(seed int) map[string]float64) []*result.File {
	var out []*result.File
	for seed := 1; seed <= 10; seed++ {
		ms := map[string]result.Metric{}
		for k, v := range f(seed) {
			ms[k] = result.Metric{Value: v, Unit: "s"}
		}
		fl := 0
		if seed <= failed {
			fl = 1
		}
		out = append(out, &result.File{
			Summary:  result.Summary{Correct: fl == 0, Attempted: 100, Failed: fl, Metrics: ms},
			Workload: workload,
			Seed:     uint64(seed),
		})
	}
	return out
}

// jitter is a deterministic ±1% wobble.
func jitter(seed int) float64 { return 1 + 0.01*float64(seed%3-1) }

func verdicts(t *testing.T, parent, change []*result.File, claims map[string]bool) map[string]string {
	t.Helper()
	rows, err := compare(parent, change, testDefs, claims)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, r := range rows {
		out[r.workload+":"+r.metric] = r.verdict
	}
	return out
}

func TestCompareMetClaim(t *testing.T) {
	parent := set("w", 0, func(s int) map[string]float64 { return map[string]float64{"op_s": 1.0 * jitter(s), "setup_s": 2} })
	change := set("w", 0, func(s int) map[string]float64 { return map[string]float64{"op_s": 0.8 * jitter(s), "setup_s": 2.1} })
	v := verdicts(t, parent, change, map[string]bool{"w:op_s": true})
	if v["w:op_s"] != vMet || v["w:setup_s"] != vOK || v["w:error_rate"] != vOK {
		t.Fatalf("verdicts %v, want op_s met, setup_s ok, error_rate ok", v)
	}
}

func TestCompareClaimNotMetWithoutNineWins(t *testing.T) {
	parent := set("w", 0, func(s int) map[string]float64 { return map[string]float64{"op_s": 1.0} })
	// Faster on 8 of 10 pairs only.
	change := set("w", 0, func(s int) map[string]float64 {
		if s > 8 {
			return map[string]float64{"op_s": 1.01}
		}
		return map[string]float64{"op_s": 0.8}
	})
	if v := verdicts(t, parent, change, map[string]bool{"w:op_s": true}); v["w:op_s"] != vNotMet {
		t.Fatalf("op_s %s, want %s", v["w:op_s"], vNotMet)
	}
}

func TestCompareRegressed(t *testing.T) {
	parent := set("w", 0, func(s int) map[string]float64 { return map[string]float64{"op_s": 1.0 * jitter(s)} })
	change := set("w", 0, func(s int) map[string]float64 { return map[string]float64{"op_s": 1.2 * jitter(s)} })
	if v := verdicts(t, parent, change, nil); v["w:op_s"] != vRegressed {
		t.Fatalf("op_s %s, want %s", v["w:op_s"], vRegressed)
	}
}

func TestCompareUnresolvedWhenSpreadExceedsBound(t *testing.T) {
	// ±30% run-to-run spread against a 10% bound, and no clear winner.
	wide := func(s int) float64 { return 1 + 0.3*float64(s%3-1) }
	parent := set("w", 0, func(s int) map[string]float64 { return map[string]float64{"op_s": wide(s)} })
	change := set("w", 0, func(s int) map[string]float64 { return map[string]float64{"op_s": wide(s + 1)} })
	if v := verdicts(t, parent, change, nil); v["w:op_s"] != vUnresolved {
		t.Fatalf("op_s %s, want %s", v["w:op_s"], vUnresolved)
	}
}

func TestCompareErrorRateMustNotRise(t *testing.T) {
	same := func(s int) map[string]float64 { return map[string]float64{"op_s": 1} }
	if v := verdicts(t, set("w", 0, same), set("w", 1, same), nil); v["w:error_rate"] != vRegressed {
		t.Fatalf("error_rate %s, want %s", v["w:error_rate"], vRegressed)
	}
	if v := verdicts(t, set("w", 1, same), set("w", 0, same), nil); v["w:error_rate"] != vOK {
		t.Fatalf("falling error_rate %s, want %s", v["w:error_rate"], vOK)
	}
}

func TestCompareNeedsTenPairs(t *testing.T) {
	one := func(s int) map[string]float64 { return map[string]float64{"op_s": 1} }
	parent := set("w", 0, one)
	if _, err := compare(parent, set("w", 0, one)[:9], testDefs, nil); err == nil {
		t.Fatal("compare accepted 9 pairs")
	}
}

func TestCompareHigherIsBetter(t *testing.T) {
	parent := set("w", 0, func(s int) map[string]float64 { return map[string]float64{"hits": 10 * jitter(s)} })
	change := set("w", 0, func(s int) map[string]float64 { return map[string]float64{"hits": 12 * jitter(s)} })
	if v := verdicts(t, parent, change, map[string]bool{"w:hits": true}); v["w:hits"] != vMet {
		t.Fatalf("hits %s, want %s", v["w:hits"], vMet)
	}
}

func TestRunReadsResultDirectories(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	def := `{"end_to_end": [{"name": "op_s", "unit": "s", "better": "lower", "bound": 0.1}], "per_layer": []}`
	if err := os.WriteFile(bench, []byte(def), 0o644); err != nil {
		t.Fatal(err)
	}
	for side, scale := range map[string]float64{"parent": 1, "change": 1.5} {
		for _, f := range set("w", 0, func(s int) map[string]float64 { return map[string]float64{"op_s": scale * jitter(s)} }) {
			if err := result.Write(filepath.Join(dir, side, f.Workload+"-"+string(rune('a'+f.Seed))+".json"), f); err != nil {
				t.Fatal(err)
			}
		}
	}
	var out strings.Builder
	failed, err := run(&out, bench, nil, []string{filepath.Join(dir, "parent"), filepath.Join(dir, "change")})
	if err != nil {
		t.Fatal(err)
	}
	if !failed || !strings.Contains(out.String(), vRegressed) {
		t.Fatalf("a 50%% slower change passed:\n%s", out.String())
	}
	out.Reset()
	if failed, err = run(&out, bench, nil, []string{filepath.Join(dir, "parent")}); err != nil || failed {
		t.Fatalf("summary of a clean set: failed=%v err=%v\n%s", failed, err, out.String())
	}
}
