//go:build e2e

package e2e

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// trainedModel trains one small fingerprinter through the real ltetrain
// binary, once per test process, and returns the model path. Every
// scenario that needs a model shares it, so the training cost is paid a
// single time per harness run.
var (
	modelOnce sync.Once
	modelPath string
	modelErr  error
)

func trainedModel(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: skipping scenarios that need a training run")
	}
	modelOnce.Do(func() {
		path := filepath.Join(sharedDir(t), "model.bin")
		res := run(t, 5*time.Minute, "ltetrain",
			"-network", "Lab", "-sessions", "2", "-duration", "20s",
			"-seed", "1", "-out", path)
		if res.ExitCode != 0 {
			modelErr = fmt.Errorf("ltetrain exited %d\nstderr:\n%s", res.ExitCode, res.Stderr)
			return
		}
		// ltetrain speaks only on stderr; a clean run leaves stdout empty.
		// Pin that: a future chatty stdout would break scripted pipelines.
		if res.Stdout != "" {
			modelErr = fmt.Errorf("ltetrain wrote to stdout: %q", res.Stdout)
			return
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			modelErr = fmt.Errorf("ltetrain produced no model at %s: %v", path, err)
			return
		}
		modelPath = path
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return modelPath
}

// TestLtesniffCaptureCSV pins the passive capture's CSV output: same
// network, app, duration, and seed must reproduce the trace byte for
// byte across PRs.
func TestLtesniffCaptureCSV(t *testing.T) {
	res := run(t, time.Minute, "ltesniff",
		"-network", "Lab", "-app", "YouTube", "-duration", "5s", "-seed", "7")
	if res.ExitCode != 0 {
		t.Fatalf("ltesniff exited %d\nstderr:\n%s", res.ExitCode, res.Stderr)
	}
	if !strings.Contains(res.Stderr, "health:") {
		t.Errorf("expected a capture-health summary on stderr, got:\n%s", res.Stderr)
	}
	golden(t, "ltesniff_capture_csv", res.Stdout)
}

// TestLtetrainThenFingerprint chains three binaries the way the paper's
// attacker would: ltesniff records a victim trace, ltetrain's model
// classifies it through lteattack fingerprint, and the verdict line is
// golden-pinned.
func TestLtetrainThenFingerprint(t *testing.T) {
	model := trainedModel(t)
	trace := filepath.Join(t.TempDir(), "victim.csv")
	res := run(t, time.Minute, "ltesniff",
		"-network", "Lab", "-app", "YouTube", "-duration", "30s", "-seed", "42",
		"-out", trace)
	if res.ExitCode != 0 {
		t.Fatalf("ltesniff exited %d\nstderr:\n%s", res.ExitCode, res.Stderr)
	}
	res = run(t, time.Minute, "lteattack", "fingerprint",
		"-model", model, "-trace", trace)
	if res.ExitCode != 0 {
		t.Fatalf("lteattack fingerprint exited %d\nstderr:\n%s", res.ExitCode, res.Stderr)
	}
	golden(t, "lteattack_fingerprint", res.Stdout)
}

// TestLteattackHistory pins the zone-history attack's table output.
func TestLteattackHistory(t *testing.T) {
	model := trainedModel(t)
	res := run(t, 2*time.Minute, "lteattack", "history",
		"-model", model, "-network", "Lab", "-seed", "99", "-minutes", "1")
	if res.ExitCode != 0 {
		t.Fatalf("lteattack history exited %d\nstderr:\n%s", res.ExitCode, res.Stderr)
	}
	golden(t, "lteattack_history", res.Stdout)
}

// TestLtecost pins the attack cost model table — pure arithmetic, so any
// drift is a real change to the model.
func TestLtecost(t *testing.T) {
	res := run(t, time.Minute, "ltecost")
	if res.ExitCode != 0 {
		t.Fatalf("ltecost exited %d\nstderr:\n%s", res.ExitCode, res.Stderr)
	}
	golden(t, "ltecost", res.Stdout)
}

var elapsedRE = regexp.MustCompile(`elapsed [^)]*\)`)

// TestLteexperimentsCost pins the experiment runner's cost rendering.
// The header's wall-clock elapsed field is normalised away; everything
// else must be deterministic in the seed.
func TestLteexperimentsCost(t *testing.T) {
	res := run(t, time.Minute, "lteexperiments", "-only", "cost", "-seed", "1")
	if res.ExitCode != 0 {
		t.Fatalf("lteexperiments exited %d\nstderr:\n%s", res.ExitCode, res.Stderr)
	}
	got := elapsedRE.ReplaceAllString(res.Stdout, "elapsed X)")
	golden(t, "lteexperiments_cost", got)
}

// TestLteattackPresence pins the paging-channel presence probe's ranked
// output: on the undefended Lab network the victim answers every probe,
// and the identity-concealment defense flips the verdict to ABSENT.
func TestLteattackPresence(t *testing.T) {
	res := run(t, 2*time.Minute, "lteattack", "presence",
		"-population", "20", "-probes", "6", "-seed", "7")
	if res.ExitCode != 0 {
		t.Fatalf("lteattack presence exited %d\nstderr:\n%s", res.ExitCode, res.Stderr)
	}
	golden(t, "lteattack_presence", res.Stdout)

	res = run(t, 2*time.Minute, "lteattack", "presence",
		"-population", "20", "-probes", "6", "-seed", "7", "-defenses", "smartpaging,conceal")
	if res.ExitCode != 0 {
		t.Fatalf("defended lteattack presence exited %d\nstderr:\n%s", res.ExitCode, res.Stderr)
	}
	if !strings.Contains(res.Stdout, "verdict: ABSENT") {
		t.Errorf("conceal+smartpaging did not hide the victim:\n%s", res.Stdout)
	}
	if !strings.Contains(res.Stdout, "defense cost:") {
		t.Errorf("defended run printed no measured cost line:\n%s", res.Stdout)
	}
}

// TestBadFlagsExitNonZero pins the flag-validation sweep: every binary
// must refuse nonsense values with a clear message and a non-zero exit
// code instead of forwarding them into the simulation.
func TestBadFlagsExitNonZero(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"ltesniff", []string{"-population", "-5"}, "-population must not be negative"},
		{"ltesniff", []string{"-duration", "-3s"}, "-duration must be positive"},
		{"lteattack", []string{"track", "-cells", "0"}, "-cells must be positive"},
		{"lteattack", []string{"presence", "-probes", "-1"}, "-probes must be positive"},
		{"lteattack", []string{"presence", "-defenses", "bogus"}, "unknown defense token"},
		{"lteexperiments", []string{"-population", "-3"}, "-population must not be negative"},
		{"lteexperiments", []string{"-only", "defenses"}, "unknown experiment"},
	}
	for _, tc := range cases {
		res := run(t, time.Minute, tc.name, tc.args...)
		if res.ExitCode == 0 {
			t.Errorf("%s %v exited 0, want failure", tc.name, tc.args)
		}
		if !strings.Contains(res.Stderr, tc.want) {
			t.Errorf("%s %v stderr %q does not mention %q", tc.name, tc.args, res.Stderr, tc.want)
		}
	}
}

// TestLtesniffLiveInterruptDrains is the regression test for the -live
// SIGINT fix: interrupting a live capture must drain the pipeline, print
// the final verdicts gathered so far, and exit 0 — not die mid-stream
// with nothing to show.
func TestLtesniffLiveInterruptDrains(t *testing.T) {
	model := trainedModel(t)
	// 2h of simulated time is a few seconds of wall clock: plenty of
	// runway to interrupt mid-capture, long after the first verdict.
	p := start(t, "ltesniff",
		"-live", "-model", model,
		"-network", "Lab", "-app", "YouTube", "-duration", "2h", "-seed", "7")
	p.WaitForStdout("t=", 30*time.Second)
	p.Signal(os.Interrupt)
	res := p.Wait(30 * time.Second)
	if res.ExitCode != 0 {
		t.Fatalf("interrupted ltesniff -live exited %d, want 0\nstderr:\n%s", res.ExitCode, res.Stderr)
	}
	if !strings.Contains(res.Stdout, "final:") {
		t.Errorf("no final verdicts after interrupt; stdout:\n%s", res.Stdout)
	}
	if !strings.Contains(res.Stderr, "interrupted at t=") {
		t.Errorf("missing interrupt notice on stderr:\n%s", res.Stderr)
	}
	if !strings.Contains(res.Stderr, "live:") {
		t.Errorf("missing live summary on stderr:\n%s", res.Stderr)
	}
}
