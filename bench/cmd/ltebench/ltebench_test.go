package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// declared reads the metric names BENCHMARK.json lists for one kind.
func declared(t *testing.T, kind string) []string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var defs []struct{ Name string }
	if err := json.Unmarshal(doc[kind], &defs); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

// TestWorkloadSmoke runs one op of every workload, untraced and traced,
// and checks that every op and replay passes and that each run reports
// exactly the metrics BENCHMARK.json declares.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	want := map[bool][]string{false: declared(t, "end_to_end"), true: declared(t, "per_layer")}
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			cfg := config{
				workload: sp.name, seed: 1, seconds: 1, trace: traced,
				root: filepath.Join("..", "..", ".."), work: t.TempDir(), setups: 1, ops: 1,
			}
			f, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, traced, err)
			}
			if !f.Correct || f.Failed != 0 || f.Attempted < 2 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", sp.name, traced, f.Correct, f.Attempted, f.Failed)
			}
			got := sortedKeys(f.Metrics)
			if len(got) != len(want[traced]) {
				t.Fatalf("%s trace=%v: metrics %v, want %v", sp.name, traced, got, want[traced])
			}
			for i := range got {
				if got[i] != want[traced][i] {
					t.Fatalf("%s trace=%v: metrics %v, want %v", sp.name, traced, got, want[traced])
				}
			}
			for name, m := range f.Metrics {
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v", sp.name, name, m.Value)
				}
			}
		}
	}
}
