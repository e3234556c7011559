// Package par is the repository's one fan-out loop. Indices 0..n-1 go out
// in increasing order from a single atomic counter to a bounded set of
// goroutines; callers write results to index-addressed storage, so the
// output never depends on which goroutine ran which index. Both entry
// points run inline on the caller's goroutine when at most one worker
// would run, so a worker count of 1 means serial execution, not a pool of
// one.
package par

import (
	"sync"
	"sync/atomic"
)

// Workers runs body on min(workers, n) goroutines, numbered w = 0.. in the
// order they are started, for callers that keep per-goroutine state (a
// scratch buffer, an aligner, a local shard). Each body pulls indices by
// calling next until it reports false; together the bodies receive every
// index in [0, n) exactly once. Workers returns when every body has
// returned. With n <= 0 body is not called; when min(workers, n) <= 1 it
// is called once, as worker 0, on the caller's goroutine.
func Workers(n, workers int, body func(w int, next func() (int, bool))) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	var ctr atomic.Int64
	next := func() (int, bool) {
		i := int(ctr.Add(1)) - 1
		return i, i < n
	}
	if workers <= 1 {
		body(0, next)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			body(w, next)
		}()
	}
	body(0, next)
	wg.Wait()
}

// For runs fn(i) for every i in [0, n) on min(workers, n) goroutines and
// returns the error of the lowest failing index — the error a serial loop
// would have hit first. The parallel path runs every index even after a
// failure; the inline path (min(workers, n) <= 1) is that serial loop and
// stops at the first error.
func For(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	Workers(n, workers, func(_ int, next func() (int, bool)) {
		for i, ok := next(); ok; i, ok = next() {
			errs[i] = fn(i)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
