package sniffer_test

import (
	"go/build"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The passive observer sees only what crosses the air: decoded control
// channel and its own bookkeeping. These packages model the network and
// the traffic the observer is trying to infer, so an import of any of
// them from the observer side would let ground truth leak into the
// attack.
var groundTruth = []string{
	"ltefp/internal/lte/enb",
	"ltefp/internal/lte/network",
	"ltefp/internal/lte/ue",
	"ltefp/internal/appmodel",
}

// TestSnifferIsHonest: internal/sniffer and internal/identity, with every
// ltefp package they import directly or transitively (test files
// excluded), import none of the ground-truth packages.
func TestSnifferIsHonest(t *testing.T) {
	root := moduleRoot(t)
	forbidden := map[string]bool{}
	for _, p := range groundTruth {
		forbidden[p] = true
	}
	// via records the import that first reached each package, to name the
	// chain in a failure.
	via := map[string]string{}
	queue := []string{"ltefp/internal/sniffer", "ltefp/internal/identity"}
	for _, p := range queue {
		via[p] = ""
	}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		pkg, err := build.ImportDir(filepath.Join(root, strings.TrimPrefix(path, "ltefp/")), 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if !strings.HasPrefix(imp, "ltefp/") {
				continue
			}
			if forbidden[imp] {
				chain := imp
				for p := path; p != ""; p = via[p] {
					chain = p + " -> " + chain
				}
				t.Errorf("observer imports ground truth: %s", chain)
			}
			if _, seen := via[imp]; !seen {
				via[imp] = path
				queue = append(queue, imp)
			}
		}
	}
	if len(via) < 3 {
		t.Fatalf("walked only %d packages; the import walk is broken", len(via))
	}
}

// moduleRoot finds the directory holding go.mod above the test's own.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}
