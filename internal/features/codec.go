package features

import (
	"fmt"

	"ltefp/internal/snapshot"
)

// SchemaVersion identifies the feature definition: the set, order, and
// semantics of the TotalDim vector components FromTrace emits. It
// participates in every cached artifact key derived from feature vectors
// (window matrices, datasets, trained forests), so changing a feature —
// adding one, reordering, altering an aggregate — must bump it, making
// stale cache entries unreachable instead of silently wrong.
const SchemaVersion uint32 = 1

// EncodeMatrix appends a window/feature matrix to the encoder: row count,
// then each row's length-prefixed float64 bit patterns. Equal matrices
// always produce equal bytes.
func EncodeMatrix(e *snapshot.Encoder, m [][]float64) {
	e.Uvarint(uint64(len(m)))
	for _, row := range m {
		e.Uvarint(uint64(len(row)))
		for _, v := range row {
			e.F64(v)
		}
	}
}

// DecodeMatrix reads a matrix written by EncodeMatrix, validating that
// every row carries exactly TotalDim features — a matrix of any other
// shape cannot have come from this pipeline. An empty matrix decodes as
// nil, matching FromTrace on a silent trace.
//
// The rows are cut from one backing array, each with its capacity capped
// at its length, so appending to a row reallocates it instead of
// overwriting the next.
func DecodeMatrix(d *snapshot.Decoder) ([][]float64, error) {
	n := d.Count(1 + 8*TotalDim) // row length + TotalDim values
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n == 0 {
		return nil, nil
	}
	m := make([][]float64, n)
	backing := make([]float64, n*TotalDim)
	for i := range m {
		k := d.Count(8)
		if d.Err() != nil {
			return nil, d.Err()
		}
		if k != TotalDim {
			return nil, fmt.Errorf("%w: feature row of %d values, schema has %d", snapshot.ErrCorrupt, k, TotalDim)
		}
		row := backing[i*TotalDim : (i+1)*TotalDim : (i+1)*TotalDim]
		for j := range row {
			row[j] = d.F64()
		}
		m[i] = row
	}
	return m, d.Err()
}

// MatrixSize approximates a matrix's in-memory footprint.
func MatrixSize(m [][]float64) int64 {
	return int64(len(m)) * (24 + 8*TotalDim)
}
