package daemon_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ltefp/internal/appmodel"
	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/daemon"
	"ltefp/internal/lte/operator"
	"ltefp/internal/ml/forest"
	"ltefp/internal/obs"
	"ltefp/internal/snapshot"
	"ltefp/internal/sniffer"
	"ltefp/internal/stream"
)

// The classifier is expensive to train, so every test shares one, built
// the same way the stream package's tests do.
var (
	clfOnce sync.Once
	clf     *fingerprint.Classifier
	clfErr  error
)

func classifier(t *testing.T) *fingerprint.Classifier {
	t.Helper()
	clfOnce.Do(func() {
		ts := fingerprint.NewTrainingSet()
		for i, app := range appmodel.Apps() {
			n := 2
			if app.Category == appmodel.Messaging {
				n *= 3
			}
			vecs, err := fingerprint.Collect(fingerprint.CollectSpec{
				Profile:          operator.Lab(),
				App:              app,
				Sessions:         n,
				SessionDur:       20 * time.Second,
				Seed:             uint64(i+1) * 31,
				Sniffer:          sniffer.Config{CorruptProb: 0.002},
				ApplyProfileLoss: true,
			})
			if err != nil {
				clfErr = err
				return
			}
			if err := ts.Add(app.Name, vecs); err != nil {
				clfErr = err
				return
			}
		}
		clf, clfErr = fingerprint.Train(ts, fingerprint.Config{
			Forest: forest.Config{Trees: 20, Seed: 1},
		})
	})
	if clfErr != nil {
		t.Fatal(clfErr)
	}
	return clf
}

// testSpecs is the shared two-capture workload: different apps, different
// seeds, one cell each.
func testSpecs() []daemon.Spec {
	return []daemon.Spec{
		{Name: "alice", Network: "Lab", App: "YouTube", Duration: 12 * time.Second, Seed: 7},
		{Name: "bob", Network: "Lab", App: "Skype", Duration: 12 * time.Second, Seed: 11},
	}
}

// baseConfig assembles the shared daemon configuration.
func baseConfig(t *testing.T, dir string, out *bytes.Buffer) daemon.Config {
	return daemon.Config{
		Classifier:      classifier(t),
		Specs:           testSpecs(),
		CheckpointDir:   dir,
		CheckpointEvery: 2 * time.Second,
		Out:             &syncWriter{buf: out},
		VerboseVerdicts: true,
		Sleep:           func(context.Context, time.Duration) error { return nil },
	}
}

// syncWriter serialises concurrent writes into one buffer.
type syncWriter struct {
	mu  sync.Mutex
	buf *bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// linesFor filters an output dump down to one capture's verdict lines
// (prefix match keeps interleaved captures separable).
func linesFor(out, name, kind string) []string {
	var got []string
	prefix := "[" + name + "] " + kind
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			got = append(got, line)
		}
	}
	return got
}

// TestDaemonRunsToCompletion pins the plain path: all captures complete,
// finals are printed, checkpoints exist on disk.
func TestDaemonRunsToCompletion(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	d, err := daemon.New(baseConfig(t, dir, &out))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, spec := range testSpecs() {
		if finals := linesFor(out.String(), spec.Name, "final:"); len(finals) == 0 {
			t.Errorf("capture %s printed no final verdicts", spec.Name)
		}
		if _, err := os.Stat(filepath.Join(dir, spec.Name+".ckpt")); err != nil {
			t.Errorf("capture %s left no checkpoint: %v", spec.Name, err)
		}
	}
}

// TestDaemonBackgroundApps pins that a spec's BackgroundApps reaches the
// scenario: the same capture with noise apps overlaid on the victim UE
// records more than without them.
func TestDaemonBackgroundApps(t *testing.T) {
	quiet := daemon.Spec{Name: "quiet", Network: "Lab", App: "YouTube", Duration: 12 * time.Second, Seed: 7}
	noisy := quiet
	noisy.Name, noisy.BackgroundApps = "noisy", 3
	d, err := daemon.New(daemon.Config{Classifier: classifier(t), Specs: []daemon.Spec{quiet, noisy}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	d.Handlers()["/healthz"].ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var h daemon.Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if len(h.Captures) != 2 {
		t.Fatalf("healthz lists %d captures, want 2", len(h.Captures))
	}
	q, n := h.Captures[0].Records, h.Captures[1].Records
	t.Logf("records: %d without noise, %d with BackgroundApps 3", q, n)
	if n <= q {
		t.Fatalf("BackgroundApps 3 recorded %d records, no more than the %d without noise", n, q)
	}
}

// TestDaemonCheckpointRestartConvergence is the tentpole property in
// process form: interrupt a daemon mid-capture, start a fresh daemon on
// the same checkpoint directory, and the resumed verdict stream is
// byte-identical to the corresponding suffix of an uninterrupted run —
// finals included.
func TestDaemonCheckpointRestartConvergence(t *testing.T) {
	// Reference: uninterrupted run.
	var refOut bytes.Buffer
	ref, err := daemon.New(baseConfig(t, t.TempDir(), &refOut))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel as soon as every capture has checkpointed.
	// The daemon writes verdict lines synchronously from the goroutine
	// that runs each capture's pipeline, so the writer interrupts at a
	// point fixed by the pipeline itself, not by a wall-clock race with
	// the run.
	dir := t.TempDir()
	var cutOut bytes.Buffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cutCfg := baseConfig(t, dir, &cutOut)
	interrupt := &interruptAtCheckpoint{w: cutCfg.Out, dir: dir, cancel: cancel, saved: map[string][]byte{}}
	cutCfg.Out = interrupt
	cut, err := daemon.New(cutCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cut.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if !interrupt.fired {
		t.Fatal("interrupted run finished before every capture had checkpointed; the interrupt never fired")
	}
	// Cancellation stops only the source; the pipeline still processes
	// what the source already queued, cutting any checkpoints it crosses,
	// and the source may have reached the scenario's end by then. Put back
	// the checkpoints as they stood at the interrupt: the disk state a
	// crash at that point leaves behind.
	for name, b := range interrupt.saved {
		if err := os.WriteFile(filepath.Join(dir, name+".ckpt"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Resumed run: fresh daemon, same checkpoint directory.
	var resOut bytes.Buffer
	res, err := daemon.New(baseConfig(t, dir, &resOut))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Every capture must have resumed from its checkpoint: a fresh start
	// would also reproduce the reference suffix and prove nothing.
	rec := httptest.NewRecorder()
	res.Handlers()["/healthz"].ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var h daemon.Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if len(h.Captures) != len(testSpecs()) {
		t.Fatalf("healthz lists %d captures, want %d", len(h.Captures), len(testSpecs()))
	}
	for _, cs := range h.Captures {
		if !cs.Restored {
			t.Fatalf("%s: resumed run did not restore its checkpoint", cs.Name)
		}
	}

	for _, spec := range testSpecs() {
		refVerdicts := linesFor(refOut.String(), spec.Name, "t=")
		resVerdicts := linesFor(resOut.String(), spec.Name, "t=")
		if len(resVerdicts) == 0 || len(resVerdicts) > len(refVerdicts) {
			t.Fatalf("%s: resumed run printed %d verdict lines, reference %d", spec.Name, len(resVerdicts), len(refVerdicts))
		}
		tail := refVerdicts[len(refVerdicts)-len(resVerdicts):]
		for i := range resVerdicts {
			if resVerdicts[i] != tail[i] {
				t.Fatalf("%s: resumed verdict line %d diverged:\n  got  %s\n  want %s",
					spec.Name, i, resVerdicts[i], tail[i])
			}
		}
		refFinals := strings.Join(linesFor(refOut.String(), spec.Name, "final:"), "\n")
		resFinals := strings.Join(linesFor(resOut.String(), spec.Name, "final:"), "\n")
		if refFinals != resFinals || refFinals == "" {
			t.Fatalf("%s: finals diverged after restore:\n--- reference\n%s\n--- resumed\n%s",
				spec.Name, refFinals, resFinals)
		}
		refDone := linesFor(refOut.String(), spec.Name, "done:")
		resDone := linesFor(resOut.String(), spec.Name, "done:")
		if len(refDone) != 1 || len(resDone) != 1 || refDone[0] != resDone[0] {
			t.Fatalf("%s: done lines diverged:\n  reference %v\n  resumed   %v", spec.Name, refDone, resDone)
		}
	}
}

// interruptAtCheckpoint forwards verdict lines to w. On each capture's
// first verdict line after that capture has checkpointed, it keeps a copy
// of the checkpoint file; the capture's pipeline is blocked in Write
// meanwhile, so the copy is exactly the checkpoint it last wrote.
// Once every spec has a copy it cancels the run. The daemon serialises
// Write calls under its output lock, and Run returns only after every
// capture has stopped, so the fields need no lock of their own.
type interruptAtCheckpoint struct {
	w      io.Writer
	dir    string
	cancel context.CancelFunc
	saved  map[string][]byte
	fired  bool
}

func (c *interruptAtCheckpoint) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	line := string(p)
	end := strings.Index(line, "] t=")
	if c.fired || !strings.HasPrefix(line, "[") || end < 0 {
		return n, err
	}
	name := line[1:end]
	if _, ok := c.saved[name]; !ok {
		if b, readErr := os.ReadFile(filepath.Join(c.dir, name+".ckpt")); readErr == nil && len(b) > 0 {
			c.saved[name] = b
		}
	}
	if len(c.saved) == len(testSpecs()) {
		c.fired = true
		c.cancel()
	}
	return n, err
}

// TestDaemonRejectsIncompatibleCheckpoint pins detectable rejection: a
// corrupt file and a parameter change both start fresh (with a report)
// instead of restoring wrong state.
func TestDaemonRejectsIncompatibleCheckpoint(t *testing.T) {
	dir := t.TempDir()

	// Seed the directory with garbage where a checkpoint would be.
	if err := os.WriteFile(filepath.Join(dir, "alice.ckpt"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	// And a valid checkpoint for bob, written under different pipeline
	// parameters (checkpoint period).
	var tmp bytes.Buffer
	pre := baseConfig(t, dir, &tmp)
	pre.CheckpointEvery = 3 * time.Second
	d0, err := daemon.New(pre)
	if err != nil {
		t.Fatal(err)
	}
	if err := d0.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "bob.ckpt")); err != nil {
		t.Fatal("pre-run left no checkpoint for bob")
	}
	// Re-corrupt alice's file (the pre-run replaced it).
	if err := os.WriteFile(filepath.Join(dir, "alice.ckpt"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	d, err := daemon.New(baseConfig(t, dir, &out)) // 2 s period != 3 s
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	dump := out.String()
	if !strings.Contains(dump, "[alice] ignoring checkpoint") {
		t.Error("corrupt checkpoint was not reported as ignored")
	}
	if !strings.Contains(dump, "[bob] ignoring checkpoint") {
		t.Error("parameter-mismatched checkpoint was not reported as ignored")
	}
	for _, spec := range testSpecs() {
		if len(linesFor(dump, spec.Name, "final:")) == 0 {
			t.Errorf("capture %s did not complete after rejecting its checkpoint", spec.Name)
		}
	}
}

// TestDaemonRejectsCheckpointThePipelineRefuses: a checkpoint that passes
// the container CRCs and the daemon's meta and model checks but fails the
// pipeline's own restore validation (a vote slot beyond the app table) is
// ignored like any other rejected checkpoint: the capture starts fresh
// and finishes exactly as an uninterrupted run does.
func TestDaemonRejectsCheckpointThePipelineRefuses(t *testing.T) {
	dir := t.TempDir()
	var refOut bytes.Buffer
	ref, err := daemon.New(baseConfig(t, dir, &refOut))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "bob.ckpt")
	sections, err := snapshot.ReadFileAll(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := stream.ReadCheckpoint(sections)
	if err != nil {
		t.Fatal(err)
	}
	bad := -1
	for i, v := range ck.Votes {
		if v.Fill > 0 {
			bad = i
			break
		}
	}
	if bad < 0 {
		t.Fatal("bob's checkpoint holds no filled vote slot to damage")
	}
	ck.Votes[bad].Slots[0] = 200
	if _, err := snapshot.WriteFileAtomic(path, func(w *snapshot.Writer) error {
		names := make([]string, 0, len(sections))
		for name := range sections {
			if !strings.HasPrefix(name, "stream.") {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			if err := w.Section(name, sections[name]); err != nil {
				return err
			}
		}
		return ck.AppendTo(w)
	}); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	d, err := daemon.New(baseConfig(t, dir, &out))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	dump := out.String()
	if !strings.Contains(dump, "[bob] ignoring checkpoint") || !strings.Contains(dump, "starting fresh") {
		t.Errorf("refused checkpoint was not reported as ignored:\n%s", dump)
	}
	refFinals := strings.Join(linesFor(refOut.String(), "bob", "final:"), "\n")
	gotFinals := strings.Join(linesFor(dump, "bob", "final:"), "\n")
	if refFinals == "" || gotFinals != refFinals {
		t.Errorf("bob's finals after the fresh start differ from an uninterrupted run's:\n--- reference\n%s\n--- got\n%s",
			refFinals, gotFinals)
	}
	rec := httptest.NewRecorder()
	d.Handlers()["/healthz"].ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var h daemon.Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	for _, cs := range h.Captures {
		if cs.Name == "bob" && (cs.Restored || cs.Restarts != 0) {
			t.Errorf("bob: restored=%v restarts=%d after a refused checkpoint, want a fresh start without restarts",
				cs.Restored, cs.Restarts)
		}
	}
}

// TestDaemonHTTPEndpoints drives /healthz, /verdicts, and /sweep against
// a completed daemon through the extended obs debug server.
func TestDaemonHTTPEndpoints(t *testing.T) {
	var out bytes.Buffer
	cfg := baseConfig(t, t.TempDir(), &out)
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	d, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	srv, err := obs.StartDebugServerWith("127.0.0.1:0", reg, d.Handlers())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr, path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, buf.String())
		}
		return buf.Bytes()
	}

	var h daemon.Health
	if err := json.Unmarshal(get("/healthz"), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Captures) != 2 {
		t.Fatalf("healthz = %+v", h)
	}
	for _, c := range h.Captures {
		if c.State != daemon.StateDone || c.Verdicts == 0 || c.CheckpointAt == 0 {
			t.Errorf("capture %s: %+v", c.Name, c)
		}
	}

	var verdicts []daemon.VerdictEntry
	if err := json.Unmarshal(get("/verdicts"), &verdicts); err != nil {
		t.Fatal(err)
	}
	if len(verdicts) == 0 {
		t.Fatal("no verdicts served")
	}
	seen := map[string]bool{}
	for _, v := range verdicts {
		seen[v.Capture] = true
		if v.App == "" || v.Windows == 0 {
			t.Errorf("verdict entry %+v", v)
		}
	}
	if !seen["alice"] || !seen["bob"] {
		t.Fatalf("verdicts cover %v, want both captures", seen)
	}

	var sw daemon.SweepResult
	if err := json.Unmarshal(get("/sweep?min=0&topk=3"), &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Users < 2 {
		t.Fatalf("sweep saw %d users, want >= 2", sw.Users)
	}

	// The metrics surface carries the daemon counters.
	if !strings.Contains(string(get("/metrics")), "daemon.checkpoint_writes") {
		t.Error("daemon counters missing from /metrics")
	}
}

// TestDaemonValidation pins constructor errors.
func TestDaemonValidation(t *testing.T) {
	c := classifier(t)
	if _, err := daemon.New(daemon.Config{Specs: testSpecs()}); err == nil {
		t.Error("missing classifier accepted")
	}
	if _, err := daemon.New(daemon.Config{Classifier: c}); err == nil {
		t.Error("no captures accepted")
	}
	if _, err := daemon.New(daemon.Config{Classifier: c, Specs: []daemon.Spec{{Name: "", App: "YouTube"}}}); err == nil {
		t.Error("empty capture name accepted")
	}
	if _, err := daemon.New(daemon.Config{Classifier: c, Specs: []daemon.Spec{
		{Name: "x", App: "YouTube"}, {Name: "x", App: "Skype"},
	}}); err == nil {
		t.Error("duplicate capture names accepted")
	}
	if _, err := daemon.New(daemon.Config{Classifier: c, Specs: []daemon.Spec{{Name: "x", App: "NoSuchApp"}}}); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := daemon.New(daemon.Config{
		Classifier: c,
		Specs:      []daemon.Spec{{Name: "x", App: "YouTube"}},
		Slice:      300 * time.Millisecond, CheckpointEvery: 500 * time.Millisecond,
	}); err == nil {
		t.Error("checkpoint period off the slice grid accepted")
	}
}
