// Package result is the file format ltebench writes for one run and
// benchcmp reads back: the run's correctness counts, its metrics, and the
// environment it ran in.
package result

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Env records where a run was measured, so two result sets can be checked
// for comparable conditions.
type Env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// Summary is the object ltebench prints as the last line of its standard
// output: whether every checked op was correct, how many ops were
// attempted and failed, and the run's metrics (end-to-end metrics for an
// untraced run, per-layer metrics for a traced one).
type Summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// File is one run's result file: the printed summary plus what identifies
// the run and metrics that are not part of the printed set (the error
// rate, and the live workload's verdict latency).
type File struct {
	Summary
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Trace    bool              `json:"trace"`
	Seconds  int               `json:"seconds"`
	Env      Env               `json:"env"`
	Extra    map[string]Metric `json:"extra,omitempty"`
}

// ErrorRate is failed ops over attempted ops.
func (f *File) ErrorRate() float64 {
	if f.Attempted == 0 {
		return 1
	}
	return float64(f.Failed) / float64(f.Attempted)
}

// All returns the printed and extra metrics in one map.
func (f *File) All() map[string]Metric {
	out := make(map[string]Metric, len(f.Metrics)+len(f.Extra))
	for k, v := range f.Metrics {
		out[k] = v
	}
	for k, v := range f.Extra {
		out[k] = v
	}
	return out
}

// Write stores the file as indented JSON.
func Write(path string, f *File) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadDir loads every *.json result file in dir, ordered by file name.
func ReadDir(dir string) ([]*File, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("result: no *.json files in %s", dir)
	}
	out := make([]*File, 0, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		f := new(File)
		if err := json.Unmarshal(b, f); err != nil {
			return nil, fmt.Errorf("result: %s: %w", p, err)
		}
		if f.Workload == "" {
			return nil, fmt.Errorf("result: %s: no workload", p)
		}
		out = append(out, f)
	}
	return out, nil
}
