package features_test

import (
	"testing"

	"ltefp/internal/features"
	"ltefp/internal/snapshot"
)

// TestDecodeMatrixRowsIndependent: decoded rows share one backing array,
// yet appending to one row must leave the next row unchanged.
func TestDecodeMatrixRowsIndependent(t *testing.T) {
	m := make([][]float64, 3)
	for i := range m {
		m[i] = make([]float64, features.TotalDim)
		for j := range m[i] {
			m[i][j] = float64(i*100 + j)
		}
	}
	e := snapshot.NewEncoder(1 << 10)
	features.EncodeMatrix(e, m)
	d := snapshot.NewDecoder(e.Bytes())
	got, err := features.DecodeMatrix(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	for i := range m {
		for j := range m[i] {
			if got[i][j] != m[i][j] {
				t.Fatalf("row %d col %d: decoded %v, want %v", i, j, got[i][j], m[i][j])
			}
		}
	}
	grown := append(got[0], -1)
	if grown[features.TotalDim] != -1 || got[1][0] != m[1][0] {
		t.Fatalf("appending to row 0 overwrote row 1: %v", got[1][0])
	}
}
