package experiments

import (
	"fmt"
	"runtime"

	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/par"
	"ltefp/internal/trace"
)

// experimentWorkers bounds the goroutines used for the embarrassingly-
// parallel outer loops of the experiment runners (per-app campaigns,
// per-variant cells, per-day drift points). Every cell derives its own
// seed, so the schedule never influences results; tests pin this to 1 to
// prove serial/parallel equivalence.
var experimentWorkers = runtime.GOMAXPROCS(0)

// forEach runs fn(0..n-1) on the experiment worker pool (par.For). fn must
// write its results to index-addressed storage; shared maps and append
// targets must be filled serially afterwards. When several indices fail,
// the lowest one's error is returned — the same error a serial loop would
// have hit first.
func forEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	// Worker-pool observability: occupancy gauge, completed-task counter,
	// and per-task wall-time histogram (the per-cell wall time of whichever
	// runner is executing). All no-ops when no registry is set.
	pool := pipelineScope().Scope("workers")
	occupancy := pool.Gauge("active")
	tasks := pool.Counter("tasks")
	taskMS := pool.Histogram("task_ms", nil)
	return par.For(n, experimentWorkers, func(i int) error {
		occupancy.Add(1)
		t := taskMS.Start()
		err := fn(i)
		t.Stop()
		occupancy.Add(-1)
		tasks.Inc()
		return err
	})
}

// forEachSession runs fn(c, s) for every session s of every campaign
// specs[c] on the experiment worker pool, as one flat task list, so a
// campaign never starts a pool of its own inside another one. Errors name
// the label, the campaign's app and the session.
func forEachSession(label string, specs []fingerprint.CollectSpec, fn func(c, s int) error) error {
	type task struct{ c, s int }
	var tasks []task
	for c, spec := range specs {
		for s := 0; s < spec.Sessions; s++ {
			tasks = append(tasks, task{c, s})
		}
	}
	return forEach(len(tasks), func(k int) error {
		t := tasks[k]
		if err := fn(t.c, t.s); err != nil {
			return fmt.Errorf("experiments: %s: %s session %d: %w", label, specs[t.c].App.Name, t.s, err)
		}
		return nil
	})
}

// collectSessions records every session of every campaign through
// forEachSession and keeps keep(trace) of each, indexed [campaign][session];
// the trace itself is dropped as soon as its task ends.
func collectSessions[T any](label string, specs []fingerprint.CollectSpec, keep func(trace.Trace) T) ([][]T, error) {
	out := make([][]T, len(specs))
	for c, spec := range specs {
		out[c] = make([]T, spec.Sessions)
	}
	err := forEachSession(label, specs, func(c, s int) error {
		tr, err := fingerprint.CollectTrace(specs[c], s)
		if err != nil {
			return err
		}
		out[c][s] = keep(tr)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// defaultWindows is fingerprint.Collect's windowing of one session: the
// default width, non-overlapping.
func defaultWindows(tr trace.Trace) [][]float64 {
	return fingerprint.WindowVectors(tr, fingerprint.DefaultWindow, fingerprint.DefaultWindow)
}
