// Command ltebench runs one benchmark workload in this process and prints
// its metrics, ending with one JSON line:
//
//	ltebench --workload lab-cold --seed 1 --seconds 10 --trace 0
//
// A run sets the workload up and runs one untimed warm-up op, three times
// over (setup_s is the median); then runs timed ops back to back, one at a
// time, for --seconds (a closed loop with one client: each op starts when
// the previous one returns). Every op's output is checked, and each failed
// check counts as a failed op. With --trace 1 the first few timed ops are
// then replayed one call at a time through each layer's public entry
// points, and the run reports per-layer metrics instead of end-to-end
// ones. See bench/README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"ltefp/bench/internal/result"
	"ltefp/internal/artifact"
)

// processStart stands in for the process start: the first set-up round is
// timed from here.
var processStart = time.Now()

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // repository root, where the goldens live
	work     string // scratch directory for disk tiers and spans
	setups   int    // set-up rounds
	ops      int    // if positive, exactly this many timed ops
}

func main() {
	cfg := config{root: ".", work: ".bench_build", setups: 3}
	var traced int
	var out string
	flag.StringVar(&cfg.workload, "workload", "", "lab-cold, lab-warm, live-stream or metro-pop")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long timed ops run")
	flag.IntVar(&traced, "trace", 0, "1 replays ops under the span tracer and reports per-layer metrics")
	flag.StringVar(&out, "out", "", "also write the result file here")
	flag.Parse()
	if flag.NArg() > 0 || (traced != 0 && traced != 1) || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = traced == 1
	runtime.GOMAXPROCS(runtime.NumCPU())

	f, err := run(cfg, os.Stdout)
	if err == nil && out != "" {
		err = result.Write(out, f)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(f.Summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runner counts checked ops and remembers each input's first output.
type runner struct {
	spec      spec
	w         io.Writer
	attempted int
	failed    int
	refs      map[int][32]byte
}

// record counts one checked op. An op whose inputs ran before must
// reproduce the first output of those inputs.
func (r *runner) record(what string, i int, out outcome, err error) {
	r.attempted++
	key := i
	if r.spec.repeats {
		key = i % r.spec.cycle
	}
	if err == nil {
		if ref, ok := r.refs[key]; !ok {
			r.refs[key] = out.digest
		} else if ref != out.digest {
			err = fmt.Errorf("output differs from the first run of the same inputs")
		}
	}
	if err != nil {
		r.failed++
		fmt.Fprintf(r.w, "FAIL %s %d: %v\n", what, i, err)
	}
}

// loopStats is what the timed loop measured.
type loopStats struct {
	ops       int
	opS       float64 // median over cycles of the cycle's mean op time
	cpuPerOp  float64 // s
	allocMB   float64 // per op
	allocs    float64 // per op
	peakRSS   float64 // median over cycles of the cycle's highest per-op peak
	gcCPUPct  float64
	gcPauseMS float64 // per op
	store     artifact.KindStats
	verdictMS []float64
	digests   [][32]byte
}

// run executes one workload run and returns its result.
func run(cfg config, w io.Writer) (f *result.File, err error) {
	sp, err := specByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	wl := sp.make(&cfg)
	defer func() {
		if cerr := wl.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	r := &runner{spec: sp, w: w, refs: make(map[int][32]byte)}

	setups := make([]float64, 0, cfg.setups)
	for k := 0; k < cfg.setups; k++ {
		start := time.Now()
		if k == 0 {
			start = processStart
		}
		if err := wl.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", sp.name, err)
		}
		out, err := wl.op(0)
		r.record("warm-up", 0, out, err)
		setups = append(setups, time.Since(start).Seconds())
	}

	ls, err := timedLoop(cfg, sp, wl, r)
	if err != nil {
		return nil, err
	}

	f = &result.File{
		Workload: sp.name,
		Seed:     cfg.seed,
		Trace:    cfg.trace,
		Seconds:  int(cfg.seconds),
		Env:      environment(),
		Extra:    make(map[string]result.Metric),
	}
	if cfg.trace {
		f.Metrics, err = traced(cfg, sp, wl, r, ls)
		if err != nil {
			return nil, err
		}
	} else {
		f.Metrics = map[string]result.Metric{
			"setup_s":         {Value: median(setups), Unit: "s"},
			"op_s":            {Value: ls.opS, Unit: "s"},
			"cpu_s_per_op":    {Value: ls.cpuPerOp, Unit: "s"},
			"alloc_mb_per_op": {Value: ls.allocMB, Unit: "MB"},
			"allocs_per_op":   {Value: ls.allocs, Unit: "count"},
			"peak_rss_mb":     {Value: ls.peakRSS / 1e6, Unit: "MB"},
		}
		if len(ls.verdictMS) > 0 {
			f.Extra["stream.verdict_ms_p50"] = result.Metric{Value: percentile(ls.verdictMS, 50), Unit: "ms"}
			f.Extra["stream.verdict_ms_p99"] = result.Metric{Value: percentile(ls.verdictMS, 99), Unit: "ms"}
			f.Extra["stream.verdict_samples"] = result.Metric{Value: float64(len(ls.verdictMS)), Unit: "count"}
		}
	}
	f.Correct = r.failed == 0
	f.Attempted = r.attempted
	f.Failed = r.failed
	f.Extra["error_rate"] = result.Metric{Value: f.ErrorRate(), Unit: "ratio"}
	f.Extra["ops"] = result.Metric{Value: float64(ls.ops), Unit: "count"}

	fmt.Fprintf(w, "%s seed=%d ops=%d attempted=%d failed=%d gomaxprocs=%d commit=%s\n",
		sp.name, cfg.seed, ls.ops, f.Attempted, f.Failed, f.Env.GOMAXPROCS, f.Env.Commit)
	all := f.All()
	for _, name := range sortedKeys(all) {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, all[name].Value, all[name].Unit)
	}
	return f, nil
}

// timedLoop runs ops for cfg.seconds, in whole cycles, and measures them.
// Time and peak memory are taken per op and summarised per cycle, so that
// every cycle weighs the run's distinct inputs alike; the run reports the
// median cycle.
func timedLoop(cfg config, sp spec, wl workload, r *runner) (loopStats, error) {
	var ls loopStats
	runtime.GC()
	debug.FreeOSMemory()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPU()
	cpu0, err := cpuTime()
	if err != nil {
		return ls, err
	}
	var opS, rss []float64
	start := time.Now()
	for i := 0; ; i++ {
		if cfg.ops > 0 {
			if i == cfg.ops {
				break
			}
		} else if i > 0 && i%sp.cycle == 0 && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		if err := resetPeakRSS(); err != nil {
			return ls, err
		}
		t := time.Now()
		out, err := wl.op(i)
		opS = append(opS, time.Since(t).Seconds())
		peak, rerr := peakRSS()
		if rerr != nil {
			return ls, rerr
		}
		rss = append(rss, float64(peak))
		r.record("op", i, out, err)
		ls.digests = append(ls.digests, out.digest)
		ls.verdictMS = append(ls.verdictMS, out.latencyMS...)
		addStats(&ls.store, out.store)
	}
	cpu1, err := cpuTime()
	if err != nil {
		return ls, err
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(opS))
	ls.ops = len(opS)
	var cycleS, cycleRSS []float64
	for c := 0; c < len(opS); c += sp.cycle {
		e := min(c+sp.cycle, len(opS))
		sum, top := 0.0, 0.0
		for k := c; k < e; k++ {
			sum += opS[k]
			top = max(top, rss[k])
		}
		cycleS = append(cycleS, sum/float64(e-c))
		cycleRSS = append(cycleRSS, top)
	}
	ls.opS = median(cycleS)
	ls.peakRSS = median(cycleRSS)
	ls.cpuPerOp = (cpu1 - cpu0).Seconds() / n
	ls.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / n
	ls.allocs = float64(m1.Mallocs-m0.Mallocs) / n
	ls.gcPauseMS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / n
	if cpu := cpu1 - cpu0; cpu > 0 {
		ls.gcCPUPct = 100 * float64(gcCPU()-gc0) / float64(cpu)
	}
	return ls, nil
}

func addStats(dst *artifact.KindStats, s artifact.KindStats) {
	dst.MemHits += s.MemHits
	dst.DiskHits += s.DiskHits
	dst.Misses += s.Misses
	dst.DiskDiscards += s.DiskDiscards
}

// traced replays the first timed ops under the tracer, checks each
// replay against its op, writes the spans, and returns the per-layer
// metrics.
func traced(cfg config, sp spec, wl workload, r *runner, ls loopStats) (map[string]result.Metric, error) {
	tr := newTracer()
	k := min(sp.traceOps, ls.ops)
	var tapMS []float64
	for i := 0; i < k; i++ {
		id := tr.beginOp(i)
		out, err := wl.replay(i, tr)
		tr.end(id)
		if err == nil && out.digest != ls.digests[i] {
			err = fmt.Errorf("replay output differs from the untraced op's")
		}
		if cov := tr.opCoverage(id); err == nil && cov < 0.95 {
			err = fmt.Errorf("layer spans cover %.1f%% of the replay", 100*cov)
		}
		r.attempted++
		if err != nil {
			r.failed++
			fmt.Fprintf(r.w, "FAIL replay %d: %v\n", i, err)
		}
		tapMS = append(tapMS, out.latencyMS...)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	if err := tr.writeJSONL(filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.jsonl", sp.name, cfg.seed))); err != nil {
		return nil, err
	}
	disk, err := dirBytes(artifact.Default.Dir())
	if err != nil {
		return nil, err
	}
	return layerMetrics(tr, k, ls, tapMS, disk), nil
}

// dirBytes sums the sizes of the files under dir ("" is empty).
func dirBytes(dir string) (int64, error) {
	if dir == "" {
		return 0, nil
	}
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// layerMetrics turns a replay's spans and counts, and the timed loop's
// runtime and store counters, into the per-layer metrics, each per op.
func layerMetrics(tr *tracer, replays int, ls loopStats, tapMS []float64, diskBytes int64) map[string]result.Metric {
	tot := tr.sum()
	n := float64(max(replays, 1))
	ops := float64(max(ls.ops, 1))
	counts := tr.counts
	sec := func(layer string) float64 { return tot.self[layer].Seconds() / n }
	mb := func(layer string) float64 { return float64(tot.selfAlloc[layer]) / 1e6 / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	nsPer := func(layer, count string) float64 { return ratio(float64(tot.self[layer].Nanoseconds()), counts[count]) }
	st := ls.store
	hits := float64(st.MemHits + st.DiskHits)
	replayS := tot.opWall.Seconds() / n

	return map[string]result.Metric{
		"capture.self_s":                  {Value: sec("capture"), Unit: "s"},
		"capture.alloc_mb":                {Value: mb("capture"), Unit: "MB"},
		"network.self_s":                  {Value: sec("network"), Unit: "s"},
		"network.alloc_mb":                {Value: mb("network"), Unit: "MB"},
		"network.ns_per_tti":              {Value: nsPer("network", "network.ttis"), Unit: "ns"},
		"sniffer.self_s":                  {Value: sec("sniffer"), Unit: "s"},
		"sniffer.capture_ratio":           {Value: ratio(counts["sniffer.captured"], counts["sniffer.candidates"]), Unit: "ratio"},
		"sniffer.plausibility_rejects":    {Value: counts["sniffer.plausibility_rejects"] / n, Unit: "count"},
		"identity.self_s":                 {Value: sec("identity"), Unit: "s"},
		"identity.alloc_mb":               {Value: mb("identity"), Unit: "MB"},
		"features.self_s":                 {Value: sec("features"), Unit: "s"},
		"features.ns_per_window":          {Value: nsPer("features", "features.windows"), Unit: "ns"},
		"features.alloc_mb":               {Value: mb("features"), Unit: "MB"},
		"forest.train_s":                  {Value: sec("forest.train"), Unit: "s"},
		"forest.train_alloc_mb":           {Value: mb("forest.train"), Unit: "MB"},
		"forest.predict_s":                {Value: sec("forest.predict"), Unit: "s"},
		"forest.ns_per_row":               {Value: nsPer("forest.predict", "forest.rows"), Unit: "ns"},
		"artifact.self_s":                 {Value: sec("artifact"), Unit: "s"},
		"artifact.alloc_mb":               {Value: mb("artifact"), Unit: "MB"},
		"artifact.mem_hits":               {Value: float64(st.MemHits) / ops, Unit: "count"},
		"artifact.disk_hits":              {Value: float64(st.DiskHits) / ops, Unit: "count"},
		"artifact.misses":                 {Value: float64(st.Misses) / ops, Unit: "count"},
		"artifact.disk_discards":          {Value: float64(st.DiskDiscards) / ops, Unit: "count"},
		"artifact.hit_ratio":              {Value: ratio(hits, hits+float64(st.Misses)), Unit: "ratio"},
		"artifact.disk_mb":                {Value: float64(diskBytes) / 1e6, Unit: "MB"},
		"stream.source_s":                 {Value: counts["stream.source_s"] / n, Unit: "s"},
		"stream.source_blocked_s":         {Value: counts["stream.source_blocked_s"] / n, Unit: "s"},
		"stream.window_to_verdict_ms_p50": {Value: percentile(tapMS, 50), Unit: "ms"},
		"stream.verdict_ms_p50":           {Value: percentile(ls.verdictMS, 50), Unit: "ms"},
		"stream.verdict_ms_p99":           {Value: percentile(ls.verdictMS, 99), Unit: "ms"},
		"stream.rows":                     {Value: counts["stream.rows"] / n, Unit: "count"},
		"stream.verdicts":                 {Value: counts["stream.verdicts"] / n, Unit: "count"},
		"stream.shed":                     {Value: counts["stream.shed"] / n, Unit: "count"},
		"snapshot.checkpoint_s":           {Value: tot.byName["snapshot.checkpoint"].Seconds() / n, Unit: "s"},
		"snapshot.checkpoint_kb":          {Value: counts["snapshot.bytes"] / 1e3 / n, Unit: "KB"},
		"runtime.gc_cpu_pct":              {Value: ls.gcCPUPct, Unit: "%"},
		"runtime.gc_pause_ms_per_op":      {Value: ls.gcPauseMS, Unit: "ms"},
		"trace.covered_pct":               {Value: 100 * ratio(float64(tot.opWall-tot.opSelf), float64(tot.opWall)), Unit: "%"},
		"trace.overhead_pct":              {Value: 100 * (ratio(replayS, ls.cpuPerOp) - 1), Unit: "%"},
		"trace.replay_s":                  {Value: replayS, Unit: "s"},
	}
}

// environment records where the run was measured.
func environment() result.Env {
	env := result.Env{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Go:         runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			env.Commit = rev + dirty
		}
	}
	return env
}
