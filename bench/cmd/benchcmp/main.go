// Command benchcmp summarises or compares sets of ltebench result files.
//
//	benchcmp [-bounds BENCHMARK.json] DIR
//	benchcmp [-bounds BENCHMARK.json] [-claim workload:metric]... PARENT CHANGE
//
// With one directory it prints each workload's metrics as median and
// quartiles, with the spread (interquartile range over median) checked
// against the metric's bound. With two it pairs parent and change runs by
// workload and seed (at least 10 pairs) and judges every metric:
//
//   - a claimed metric is met only if the change wins at least 9 of 10
//     pairs and the medians differ, in its favour, by more than the
//     parent's interquartile range;
//   - any other metric with a bound regresses if the change's median is
//     worse than the parent's by more than the bound, and is unresolved if
//     either side's spread exceeds the bound, unless every change run beats
//     every parent run;
//   - the error rate, failed over attempted ops, must not rise.
//
// It exits 1 if any row regressed, is unresolved, or is a claim not met.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ltefp/bench/internal/result"
)

type claimFlags map[string]bool

func (c claimFlags) String() string { return fmt.Sprint(map[string]bool(c)) }

func (c claimFlags) Set(v string) error {
	if !strings.Contains(v, ":") {
		return fmt.Errorf("claim %q is not workload:metric", v)
	}
	c[v] = true
	return nil
}

func main() {
	boundsPath := flag.String("bounds", "BENCHMARK.json", "benchmark definition with metric directions and bounds")
	claims := claimFlags{}
	flag.Var(claims, "claim", "workload:metric the change claims to improve (repeatable)")
	flag.Parse()
	if flag.NArg() < 1 || flag.NArg() > 2 {
		flag.Usage()
		os.Exit(2)
	}
	failed, err := run(os.Stdout, *boundsPath, claims, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

// run prints the summary or comparison and reports whether any row fails.
func run(w io.Writer, boundsPath string, claims map[string]bool, dirs []string) (bool, error) {
	defs, err := readDefs(boundsPath)
	if err != nil {
		return false, err
	}
	sets := make([][]*result.File, len(dirs))
	for i, d := range dirs {
		if sets[i], err = result.ReadDir(d); err != nil {
			return false, err
		}
		printEnv(w, d, sets[i])
	}
	var rows []row
	if len(sets) == 1 {
		if len(claims) > 0 {
			return false, fmt.Errorf("claims need a parent and a change set")
		}
		rows = summarizeSet(sets[0], defs)
		fmt.Fprintf(w, "%-12s %-32s %-6s %12s %25s %8s %7s %4s  %s\n",
			"workload", "metric", "unit", "median", "[q1, q3]", "spread", "bound", "n", "verdict")
		for _, r := range rows {
			fmt.Fprintf(w, "%-12s %-32s %-6s %12.6g %25s %7.1f%% %7s %4d  %s\n",
				r.workload, r.metric, r.unit, r.parent.med, quart(r.parent), 100*r.parent.relativeIQR, pct(r.bound), r.parent.n, r.verdict)
		}
	} else {
		if rows, err = compare(sets[0], sets[1], defs, claims); err != nil {
			return false, err
		}
		fmt.Fprintf(w, "%-12s %-32s %-6s %12s %25s %12s %25s %8s %6s %7s  %s\n",
			"workload", "metric", "unit", "parent", "[q1, q3]", "change", "[q1, q3]", "delta", "wins", "bound", "verdict")
		for _, r := range rows {
			delta := 0.0
			if r.parent.med != 0 {
				delta = 100 * (r.change.med - r.parent.med) / r.parent.med
			}
			fmt.Fprintf(w, "%-12s %-32s %-6s %12.6g %25s %12.6g %25s %+7.1f%% %6s %7s  %s\n",
				r.workload, r.metric, r.unit, r.parent.med, quart(r.parent), r.change.med, quart(r.change),
				delta, fmt.Sprintf("%d/%d", r.wins, r.pairs), pct(r.bound), r.verdict)
		}
	}
	failed := false
	for _, r := range rows {
		failed = failed || failing(r.verdict)
	}
	return failed, nil
}

func quart(s stats) string { return fmt.Sprintf("[%.6g, %.6g]", s.q1, s.q3) }

func pct(bound float64) string {
	if bound == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*bound)
}

// printEnv shows where a set was measured, and warns when its runs
// disagree on it.
func printEnv(w io.Writer, dir string, files []*result.File) {
	envs := map[result.Env]int{}
	for _, f := range files {
		envs[f.Env]++
	}
	for e, n := range envs {
		fmt.Fprintf(w, "%s: %d runs: gomaxprocs=%d nproc=%d go=%s commit=%s\n", dir, n, e.GOMAXPROCS, e.NProc, e.Go, e.Commit)
	}
	if len(envs) > 1 {
		fmt.Fprintf(w, "%s: WARNING: runs measured in %d environments\n", dir, len(envs))
	}
}
