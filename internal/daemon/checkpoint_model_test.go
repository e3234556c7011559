package daemon_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ltefp/internal/attack/fingerprint"
	"ltefp/internal/daemon"
	"ltefp/internal/snapshot"
)

// v1ModelFile is a model file written in the v1 forest layout, before v2
// (see the fingerprint package's TestLoadV1ModelFile).
const v1ModelFile = "../attack/fingerprint/testdata/model_v1.bin"

// embedModel rewrites every capture's checkpoint in dir with the given
// classifier sections in place of the ones the daemon wrote.
func embedModel(t *testing.T, dir string, model map[string][]byte) {
	t.Helper()
	for _, spec := range testSpecs() {
		path := filepath.Join(dir, spec.Name+".ckpt")
		sections, err := snapshot.ReadFileAll(path)
		if err != nil {
			t.Fatal(err)
		}
		for name, b := range model {
			sections[name] = b
		}
		names := make([]string, 0, len(sections))
		for name := range sections {
			names = append(names, name)
		}
		sort.Strings(names)
		if _, err := snapshot.WriteFileAtomic(path, func(w *snapshot.Writer) error {
			for _, name := range names {
				if err := w.Section(name, sections[name]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDaemonRestoresV1ModelCheckpoint: a checkpoint whose embedded model
// is in the v1 forest layout, as a binary from before v2 wrote it,
// restores under the same model — the model is compared by content, not
// by bytes — and a checkpoint of a different model is still refused.
func TestDaemonRestoresV1ModelCheckpoint(t *testing.T) {
	raw, err := os.ReadFile(v1ModelFile)
	if err != nil {
		t.Fatal(err)
	}
	v1Sections, err := snapshot.ReadAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := fingerprint.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(v1Sections[fingerprint.SectionModel], v1.Sections()[fingerprint.SectionModel]) {
		t.Fatal("fixture model is already in the current layout")
	}

	dir := t.TempDir()
	var refOut bytes.Buffer
	cfg := baseConfig(t, dir, &refOut)
	cfg.Classifier = v1
	ref, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	embedModel(t, dir, v1Sections)
	var resOut bytes.Buffer
	cfg = baseConfig(t, dir, &resOut)
	cfg.Classifier = v1
	res, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(resOut.String(), "ignoring checkpoint") {
		t.Fatalf("v1-model checkpoint refused:\n%s", resOut.String())
	}
	rec := httptest.NewRecorder()
	res.Handlers()["/healthz"].ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var h daemon.Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	for _, cs := range h.Captures {
		if !cs.Restored {
			t.Fatalf("%s: did not restore its v1-model checkpoint", cs.Name)
		}
	}
	for _, spec := range testSpecs() {
		refDone := linesFor(refOut.String(), spec.Name, "done:")
		resDone := linesFor(resOut.String(), spec.Name, "done:")
		if len(refDone) != 1 || len(resDone) != 1 || refDone[0] != resDone[0] {
			t.Fatalf("%s: done lines diverged:\n  reference %v\n  restored  %v", spec.Name, refDone, resDone)
		}
	}

	// The same v1 checkpoints under a different model start fresh.
	embedModel(t, dir, v1Sections)
	var otherOut bytes.Buffer
	other, err := daemon.New(baseConfig(t, dir, &otherOut))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, spec := range testSpecs() {
		if want := "[" + spec.Name + "] ignoring checkpoint"; !strings.Contains(otherOut.String(), want) ||
			!strings.Contains(otherOut.String(), "trained model changed") {
			t.Errorf("%s: checkpoint of a different model was not refused:\n%s", spec.Name, otherOut.String())
		}
	}
}
