//go:build e2e

// This file drives the repository's CLI binaries as real subprocesses. It
// builds each cmd/<name> binary at most once per test process into a
// shared temporary directory, runs them with captured stdout/stderr and
// exit codes, and supports long-running processes that tests signal,
// kill -9, and restart — the shape the daemon's checkpoint/restore cases
// need.
//
// Golden comparison follows the repository's -update idiom: expected
// stdout lives in testdata/<name>.golden, and
// `go test -tags e2e ./e2e -run X -update` rewrites it.

package e2e

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files with the observed output")

// build state: one shared bin dir per test process, each binary compiled
// at most once no matter how many tests ask for it.
var (
	buildMu sync.Mutex
	binDir  string
	built   = map[string]buildResult{}
)

type buildResult struct {
	path string
	err  error
}

// binary returns the path of the compiled cmd/<name> binary, building it
// on first use. Compilation failures fail the calling test.
func binary(t testing.TB, name string) string {
	t.Helper()
	buildMu.Lock()
	defer buildMu.Unlock()
	if r, ok := built[name]; ok {
		if r.err != nil {
			t.Fatalf("building %s (cached): %v", name, r.err)
		}
		return r.path
	}
	if binDir == "" {
		dir, err := os.MkdirTemp("", "ltefp-e2e-bin-")
		if err != nil {
			t.Fatalf("e2e: bin dir: %v", err)
		}
		binDir = dir
	}
	out := filepath.Join(binDir, name)
	cmd := exec.Command("go", "build", "-o", out, "ltefp/cmd/"+name)
	cmd.Env = os.Environ()
	if msg, err := cmd.CombinedOutput(); err != nil {
		r := buildResult{err: fmt.Errorf("%v\n%s", err, msg)}
		built[name] = r
		t.Fatalf("building %s: %v", name, r.err)
	}
	built[name] = buildResult{path: out}
	return out
}

// sharedDir returns a directory that outlives any single test in this
// process — model files trained once and reused across scenarios live
// here, next to the binaries.
func sharedDir(t testing.TB) string {
	t.Helper()
	binary(t, "ltecost") // force the bin dir into existence cheaply
	return binDir
}

// result is a finished subprocess: captured output and exit status.
type result struct {
	Stdout   string
	Stderr   string
	ExitCode int    // -1 when killed by a signal
	Signal   string // non-empty when the process died to a signal
}

// run executes one binary to completion with a deadline. Failures to start
// and deadline overruns fail the test; non-zero exits do not (callers
// assert on ExitCode so "refuses bad flags" scenarios stay expressible).
func run(t testing.TB, timeout time.Duration, name string, args ...string) result {
	t.Helper()
	p := start(t, name, args...)
	return p.Wait(timeout)
}

// lockedBuffer is a concurrency-safe output sink; the subprocess writes
// from its own OS pipe goroutine while tests poll Snapshot.
type lockedBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Snapshot() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// proc is a running subprocess under test control.
type proc struct {
	t      testing.TB
	name   string
	cmd    *exec.Cmd
	stdout *lockedBuffer
	stderr *lockedBuffer

	waitOnce sync.Once
	waitErr  error
	done     chan struct{}
}

// start launches cmd/<name> (building it if needed) and returns a handle
// the test can observe, signal, kill, and wait on. Processes still
// running at test end are killed.
func start(t testing.TB, name string, args ...string) *proc {
	t.Helper()
	bin := binary(t, name)
	p := &proc{
		t:      t,
		name:   name,
		cmd:    exec.Command(bin, args...),
		stdout: &lockedBuffer{},
		stderr: &lockedBuffer{},
		done:   make(chan struct{}),
	}
	p.cmd.Stdout = p.stdout
	p.cmd.Stderr = p.stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", name, err)
	}
	go func() {
		p.waitErr = p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		select {
		case <-p.done:
		default:
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	})
	return p
}

// Stdout returns everything the process has written to stdout so far.
func (p *proc) Stdout() string { return p.stdout.Snapshot() }

// Stderr returns everything the process has written to stderr so far.
func (p *proc) Stderr() string { return p.stderr.Snapshot() }

// Signal delivers sig (e.g. os.Interrupt) to the process.
func (p *proc) Signal(sig os.Signal) {
	p.t.Helper()
	if err := p.cmd.Process.Signal(sig); err != nil {
		p.t.Fatalf("signalling %s: %v", p.name, err)
	}
}

// Kill delivers SIGKILL — the crash the checkpoint/restore e2e cases
// recover from. The process gets no chance to flush or drain.
func (p *proc) Kill() {
	p.t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		p.t.Fatalf("killing %s: %v", p.name, err)
	}
}

// Exited reports whether the process has terminated.
func (p *proc) Exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// Wait blocks until the process exits or the deadline passes (the latter
// kills it and fails the test), then returns the captured result.
func (p *proc) Wait(timeout time.Duration) result {
	p.t.Helper()
	select {
	case <-p.done:
	case <-time.After(timeout):
		_ = p.cmd.Process.Kill()
		<-p.done
		p.t.Fatalf("%s: still running after %s\nstdout:\n%s\nstderr:\n%s",
			p.name, timeout, p.Stdout(), p.Stderr())
	}
	res := result{Stdout: p.Stdout(), Stderr: p.Stderr(), ExitCode: 0}
	if p.waitErr != nil {
		res.ExitCode = -1
		if ee, ok := p.waitErr.(*exec.ExitError); ok {
			res.ExitCode = ee.ExitCode()
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
				res.Signal = ws.Signal().String()
			}
		}
	}
	return res
}

// WaitForStdout polls until the process's stdout contains substr,
// failing the test after timeout. Returns the stdout snapshot that
// first contained the substring.
func (p *proc) WaitForStdout(substr string, timeout time.Duration) string {
	p.t.Helper()
	return p.WaitUntil(func(stdout string) bool {
		return strings.Contains(stdout, substr)
	}, timeout, fmt.Sprintf("stdout containing %q", substr))
}

// WaitUntil polls the process's stdout every 2ms until pred accepts it.
// The condition may also become true on the process's final output after
// exit; only when the process is gone AND pred still rejects does the
// test fail early.
func (p *proc) WaitUntil(pred func(stdout string) bool, timeout time.Duration, what string) string {
	p.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if out := p.Stdout(); pred(out) {
			return out
		}
		if p.Exited() {
			// One final check: output written just before exit.
			if out := p.Stdout(); pred(out) {
				return out
			}
			p.t.Fatalf("%s exited before producing %s\nstdout:\n%s\nstderr:\n%s",
				p.name, what, p.Stdout(), p.Stderr())
		}
		if time.Now().After(deadline) {
			p.t.Fatalf("%s: no %s after %s\nstdout:\n%s\nstderr:\n%s",
				p.name, what, timeout, p.Stdout(), p.Stderr())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitForFiles polls until every named file exists and is non-empty,
// failing the test after timeout. Used to catch a daemon mid-run right
// after its first checkpoint set lands.
func waitForFiles(t testing.TB, timeout time.Duration, paths ...string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		all := true
		for _, path := range paths {
			if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
				all = false
				break
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("files %v not all present after %s", paths, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// golden compares got against testdata/<name>.golden, rewriting the file
// under -update. The diff report shows the first divergent line so CSV
// and table regressions are readable.
func golden(t testing.TB, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create it): %v", path, err)
	}
	if string(want) == got {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	line := 0
	for line < len(wantLines) && line < len(gotLines) && wantLines[line] == gotLines[line] {
		line++
	}
	wantAt, gotAt := "<eof>", "<eof>"
	if line < len(wantLines) {
		wantAt = wantLines[line]
	}
	if line < len(gotLines) {
		gotAt = gotLines[line]
	}
	t.Errorf("%s: output diverges from golden at line %d:\n want: %q\n  got: %q\n(re-bless with -update if the change is intended)",
		name, line+1, wantAt, gotAt)
}
