package par_test

import (
	"bytes"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"ltefp/internal/par"
)

var (
	sizes       = []int{0, 1, 2, 17, 1000}
	workerCount = []int{-1, 0, 1, 3, 64}
)

// TestEveryIndexOnce: both entry points hand every index in [0, n) to
// exactly one call, and Workers numbers its goroutines below
// min(workers, n).
func TestEveryIndexOnce(t *testing.T) {
	for _, n := range sizes {
		for _, workers := range workerCount {
			hits := make([]atomic.Int32, n)
			if err := par.For(n, workers, func(i int) error {
				hits[i].Add(1)
				return nil
			}); err != nil {
				t.Fatalf("For(%d, %d): %v", n, workers, err)
			}
			checkOnce(t, "For", n, workers, hits)

			hits = make([]atomic.Int32, n)
			limit := max(min(workers, n), 1)
			var mu sync.Mutex
			seen := make(map[int]bool)
			par.Workers(n, workers, func(w int, next func() (int, bool)) {
				if w < 0 || w >= limit {
					t.Errorf("Workers(%d, %d): worker %d outside [0, %d)", n, workers, w, limit)
				}
				mu.Lock()
				if seen[w] {
					t.Errorf("Workers(%d, %d): worker %d started twice", n, workers, w)
				}
				seen[w] = true
				mu.Unlock()
				for i, ok := next(); ok; i, ok = next() {
					hits[i].Add(1)
				}
			})
			if n == 0 && len(seen) != 0 {
				t.Errorf("Workers(0, %d) called its body", workers)
			}
			checkOnce(t, "Workers", n, workers, hits)
		}
	}
}

func checkOnce(t *testing.T, entry string, n, workers int, hits []atomic.Int32) {
	t.Helper()
	for i := range hits {
		if c := hits[i].Load(); c != 1 {
			t.Fatalf("%s(%d, %d): index %d ran %d times, want once", entry, n, workers, i, c)
		}
	}
}

// TestLowestErrorWins: For reports the lowest failing index's error even
// when a higher index fails first, as a serial loop would.
func TestLowestErrorWins(t *testing.T) {
	errLow, errHigh := errors.New("index 0"), errors.New("index 1")
	highFailed := make(chan struct{})
	err := par.For(2, 2, func(i int) error {
		if i == 1 {
			close(highFailed)
			return errHigh
		}
		<-highFailed
		return errLow
	})
	if err != errLow {
		t.Fatalf("For returned %v, want %v", err, errLow)
	}
}

// TestSerialStopsAtFirstError: the inline path is the serial loop, so no
// index past the first failure runs.
func TestSerialStopsAtFirstError(t *testing.T) {
	errStop := errors.New("stop")
	var ran []int
	err := par.For(5, 1, func(i int) error {
		ran = append(ran, i)
		if i == 2 {
			return errStop
		}
		return nil
	})
	if err != errStop || len(ran) != 3 {
		t.Fatalf("For(5, 1) = %v after indices %v, want %v after [0 1 2]", err, ran, errStop)
	}
}

// TestInlineOnCaller: with at most one worker, both entry points run on
// the caller's goroutine.
func TestInlineOnCaller(t *testing.T) {
	caller := goroutineID()
	for _, c := range []struct{ n, workers int }{{17, 1}, {17, 0}, {17, -1}, {1, 64}} {
		if err := par.For(c.n, c.workers, func(int) error {
			if id := goroutineID(); id != caller {
				t.Errorf("For(%d, %d) ran on goroutine %d, want caller %d", c.n, c.workers, id, caller)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		par.Workers(c.n, c.workers, func(int, func() (int, bool)) {
			if id := goroutineID(); id != caller {
				t.Errorf("Workers(%d, %d) ran on goroutine %d, want caller %d", c.n, c.workers, id, caller)
			}
		})
	}
}

// TestInlineForAllocs: the serial path costs nothing beyond fn itself.
func TestInlineForAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sum := 0
	fn := func(i int) error {
		sum += i
		return nil
	}
	if a := testing.AllocsPerRun(100, func() { _ = par.For(1000, 1, fn) }); a != 0 {
		t.Fatalf("For(1000, 1) allocated %.1f times per call, want 0", a)
	}
}

// goroutineID parses the running goroutine's number from its stack header
// ("goroutine 7 [running]:").
func goroutineID() int {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, err := strconv.Atoi(string(buf[:bytes.IndexByte(buf, ' ')]))
	if err != nil {
		panic(err)
	}
	return id
}
