// Command lteexperiments regenerates the paper's tables and figures from
// the simulated LTE substrate. Each experiment prints a text rendering
// mirroring the paper's layout; see EXPERIMENTS.md for the side-by-side
// comparison with the published numbers.
//
// Usage:
//
//	lteexperiments [-scale quick|full] [-seed N] [-only list]
//	               [-cache-dir path] [-metrics] [-debug-addr host:port]
//
// where -only is a comma-separated subset of
// table3,table4,table5,table6,table7,table8,fig8,fig9,cost plus the
// ablation/extension studies pareto,windowsweep,twsweep,retraining,
// concealment (pareto's rows include the §VIII-B countermeasures). An
// unknown name is an error. -metrics appends a per-run pipeline health
// report after each experiment (never part of the table rendering itself), and
// -debug-addr serves /debug/vars, /debug/pprof/ and /metrics while the
// experiments run.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"ltefp"
	"ltefp/internal/cliflag"
	"ltefp/internal/experiments"
	"ltefp/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lteexperiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lteexperiments", flag.ContinueOnError)
	scaleName := fs.String("scale", "quick", "experiment scale: quick or full")
	seed := fs.Uint64("seed", 1, "master random seed")
	only := fs.String("only", "", "comma-separated experiment subset (default: all)")
	population := fs.Int("population", 0, "mostly-idle background UEs per capture cell (~1% active)")
	cacheDir := fs.String("cache-dir", "", "persistent artifact cache directory (captures, window matrices, datasets, trained forests); empty = memory-only")
	metrics := fs.Bool("metrics", false, "print a pipeline metrics report after each experiment")
	debugAddr := fs.String("debug-addr", "", "serve /debug/vars, /debug/pprof/ and /metrics on this address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cliflag.NonNegative("population", *population); err != nil {
		return err
	}
	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.Quick()
	case "full":
		scale = experiments.Full()
	default:
		return fmt.Errorf("unknown scale %q (want quick or full)", *scaleName)
	}
	scale.Population = *population

	type experiment struct {
		name string
		run  func() (fmt.Stringer, error)
	}
	var table6 fmt.Stringer
	var table7 fmt.Stringer
	runs := []experiment{
		{"table3", func() (fmt.Stringer, error) { return experiments.TableIII(scale, *seed) }},
		{"table4", func() (fmt.Stringer, error) { return experiments.TableIV(scale, *seed) }},
		{"table5", func() (fmt.Stringer, error) { return experiments.TableV(scale, *seed) }},
		{"table6", func() (fmt.Stringer, error) {
			var err error
			table6, table7, err = experiments.TableVIandVII(scale, *seed)
			return table6, err
		}},
		{"table7", func() (fmt.Stringer, error) {
			if table7 == nil {
				var err error
				table6, table7, err = experiments.TableVIandVII(scale, *seed)
				if err != nil {
					return nil, err
				}
			}
			return table7, nil
		}},
		{"table8", func() (fmt.Stringer, error) { return experiments.TableVIII(scale, *seed) }},
		{"fig8", func() (fmt.Stringer, error) { return experiments.Figure8(scale, *seed) }},
		{"fig9", func() (fmt.Stringer, error) { return experiments.Figure9(scale, *seed) }},
		{"cost", func() (fmt.Stringer, error) { return experiments.CostModel(), nil }},
		{"pareto", func() (fmt.Stringer, error) { return experiments.Pareto(scale, *seed) }},
		{"windowsweep", func() (fmt.Stringer, error) { return experiments.WindowSweep(scale, *seed) }},
		{"twsweep", func() (fmt.Stringer, error) { return experiments.TwSweep(scale, *seed) }},
		{"retraining", func() (fmt.Stringer, error) { return experiments.Retraining(scale, *seed) }},
		{"concealment", func() (fmt.Stringer, error) { return experiments.Concealment(scale, *seed) }},
	}
	want := map[string]bool{}
	if *only != "" {
		names := make([]string, len(runs))
		for i, e := range runs {
			names[i] = e.name
		}
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(strings.ToLower(name))
			if !slices.Contains(names, name) {
				return fmt.Errorf("unknown experiment %q in -only (want a comma-separated subset of %s)", name, strings.Join(names, ","))
			}
			want[name] = true
		}
	}
	selected := func(name string) bool { return len(want) == 0 || want[name] }

	if *cacheDir != "" {
		if err := ltefp.SetCacheDir(*cacheDir); err != nil {
			return err
		}
	}

	var reg *obs.Registry
	if *metrics || *debugAddr != "" {
		reg = obs.NewRegistry()
		experiments.SetMetrics(reg)
		if *debugAddr != "" {
			srv, err := obs.StartDebugServer(*debugAddr, reg)
			if err != nil {
				return err
			}
			defer func() { _ = srv.Close() }()
			fmt.Fprintf(os.Stderr, "lteexperiments: debug server on http://%s/ (/debug/vars, /debug/pprof/, /metrics)\n", srv.Addr)
		}
	}

	for _, e := range runs {
		if !selected(e.name) {
			continue
		}
		// Reset (not replace) the registry per experiment so cached metric
		// pointers inside the pipeline stay valid and each report covers
		// exactly one run.
		reg.Reset()
		start := time.Now()
		res, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Printf("### %s (scale=%s, seed=%d, elapsed %v)\n%s\n",
			e.name, scale.Name, *seed, time.Since(start).Round(time.Second), res)
		if *metrics {
			fmt.Printf("--- metrics: %s ---\n%s\n", e.name, experiments.MetricsReport(reg.Snapshot()))
		}
	}
	return nil
}
