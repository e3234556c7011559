//go:build e2e

package e2e

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// captureLines filters a daemon stdout dump down to one capture's lines
// of one kind ("t=", "final:", "done:"). The daemon prefixes every line
// with [name], which keeps concurrently interleaved captures separable
// and per-capture order deterministic.
func captureLines(out, name, kind string) []string {
	prefix := "[" + name + "] "
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) && strings.HasPrefix(line[len(prefix):], kind) {
			lines = append(lines, line)
		}
	}
	return lines
}

// TestLteattackdFinals pins the daemon's per-capture verdict stream.
// The two captures run concurrently so raw stdout interleaving is
// scheduler-dependent, but each capture's own line sequence is
// deterministic — the golden holds the per-capture streams in spec
// order.
func TestLteattackdFinals(t *testing.T) {
	model := trainedModel(t)
	res := run(t, 2*time.Minute, "lteattackd",
		"-model", model,
		"-capture", "alice:Lab:YouTube:15s:7",
		"-capture", "bob:Lab:Skype:15s:11")
	if res.ExitCode != 0 {
		t.Fatalf("lteattackd exited %d\nstderr:\n%s", res.ExitCode, res.Stderr)
	}
	var pinned []string
	for _, name := range []string{"alice", "bob"} {
		for _, kind := range []string{"t=", "final:", "done:"} {
			pinned = append(pinned, captureLines(res.Stdout, name, kind)...)
		}
	}
	golden(t, "lteattackd_finals", strings.Join(pinned, "\n")+"\n")
}

// TestLteattackdKill9CheckpointRestore is the tentpole's end-to-end
// proof, run against the real binary: kill -9 the daemon mid-stream,
// restart it from the checkpoints left on disk, and the restarted run's
// verdicts must be byte-identical to the uninterrupted run's — the
// resumed stream is an exact suffix, and the finals match exactly.
func TestLteattackdKill9CheckpointRestore(t *testing.T) {
	model := trainedModel(t)
	specs := []string{"alice:Lab:YouTube:30m:7", "bob:Lab:Skype:30m:11"}
	names := []string{"alice", "bob"}
	daemonArgs := func(dir string) []string {
		return []string{
			"-model", model, "-verbose",
			"-checkpoint-dir", dir, "-checkpoint-every", "1m",
			"-capture", specs[0], "-capture", specs[1],
		}
	}

	// Reference: the same workload run start to finish, uninterrupted.
	refDir := t.TempDir()
	ref := run(t, 5*time.Minute, "lteattackd", daemonArgs(refDir)...)
	if ref.ExitCode != 0 {
		t.Fatalf("reference lteattackd exited %d\nstderr:\n%s", ref.ExitCode, ref.Stderr)
	}

	// Victim: same workload, SIGKILLed as soon as the first checkpoint
	// set has landed — no drain, no flush, files only as durable as the
	// atomic rename made them.
	dir := t.TempDir()
	p := start(t, "lteattackd", daemonArgs(dir)...)
	waitForFiles(t, time.Minute,
		filepath.Join(dir, "alice.ckpt"), filepath.Join(dir, "bob.ckpt"))
	p.Kill()
	killed := p.Wait(30 * time.Second)
	if killed.Signal != "killed" {
		t.Fatalf("victim daemon died to %q exit %d, want SIGKILL", killed.Signal, killed.ExitCode)
	}
	for _, name := range names {
		if len(captureLines(killed.Stdout, name, "done:")) != 0 {
			t.Fatalf("capture %s completed before the kill; the restart would prove nothing", name)
		}
	}

	// Restart from the checkpoints and let it run to completion.
	res := run(t, 5*time.Minute, "lteattackd", daemonArgs(dir)...)
	if res.ExitCode != 0 {
		t.Fatalf("restarted lteattackd exited %d\nstderr:\n%s", res.ExitCode, res.Stderr)
	}
	if strings.Contains(res.Stdout, "ignoring checkpoint") {
		t.Fatalf("restart rejected a checkpoint it wrote itself:\n%s", res.Stdout)
	}

	for _, name := range names {
		refVerdicts := captureLines(ref.Stdout, name, "t=")
		resVerdicts := captureLines(res.Stdout, name, "t=")
		if len(resVerdicts) == 0 {
			t.Fatalf("%s: restarted run produced no verdicts", name)
		}
		if len(resVerdicts) > len(refVerdicts) {
			t.Fatalf("%s: restarted run produced %d verdicts, reference only %d",
				name, len(resVerdicts), len(refVerdicts))
		}
		tail := refVerdicts[len(refVerdicts)-len(resVerdicts):]
		for i := range tail {
			if tail[i] != resVerdicts[i] {
				t.Fatalf("%s: resumed verdict %d diverges from reference tail:\n ref: %s\n got: %s",
					name, i, tail[i], resVerdicts[i])
			}
		}
		refFinals := strings.Join(captureLines(ref.Stdout, name, "final:"), "\n")
		resFinals := strings.Join(captureLines(res.Stdout, name, "final:"), "\n")
		if refFinals != resFinals {
			t.Errorf("%s: final verdicts differ after kill -9 restore\nreference:\n%s\nrestarted:\n%s",
				name, refFinals, resFinals)
		}
		refDone := strings.Join(captureLines(ref.Stdout, name, "done:"), "\n")
		resDone := strings.Join(captureLines(res.Stdout, name, "done:"), "\n")
		if refDone != resDone {
			t.Errorf("%s: done summary differs after kill -9 restore\nreference:\n%s\nrestarted:\n%s",
				name, refDone, resDone)
		}
	}
}

// TestLteattackdRejectsForeignCheckpoint feeds the daemon a checkpoint
// file that is not a snapshot container at all; it must log the
// rejection, start that capture fresh, and still run to completion.
func TestLteattackdRejectsForeignCheckpoint(t *testing.T) {
	model := trainedModel(t)
	dir := t.TempDir()
	// A gob-era or otherwise foreign blob where alice's checkpoint goes.
	if err := os.WriteFile(filepath.Join(dir, "alice.ckpt"),
		[]byte("\x0e\x7f\x04\x01\x02\xffnot a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	res := run(t, 2*time.Minute, "lteattackd",
		"-model", model, "-checkpoint-dir", dir,
		"-capture", "alice:Lab:YouTube:15s:7")
	if res.ExitCode != 0 {
		t.Fatalf("lteattackd exited %d\nstderr:\n%s", res.ExitCode, res.Stderr)
	}
	if !strings.Contains(res.Stdout, "[alice] ignoring checkpoint") {
		t.Errorf("foreign checkpoint was not reported as ignored; stdout:\n%s", res.Stdout)
	}
	if len(captureLines(res.Stdout, "alice", "done:")) == 0 {
		t.Errorf("capture did not complete after ignoring the foreign checkpoint; stdout:\n%s", res.Stdout)
	}
}
