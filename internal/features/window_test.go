package features

import (
	"math"
	"testing"
	"time"

	"ltefp/internal/lte/dci"
	"ltefp/internal/trace"
)

const ms = time.Millisecond

func TestEmptyWindowIsZero(t *testing.T) {
	v := windowRow(0, nil, 100*ms)
	if len(v) != Dim {
		t.Fatalf("vector length %d", len(v))
	}
	for i, x := range v {
		if x != 0 {
			t.Fatalf("feature %d of empty window = %v", i, x)
		}
	}
}

func TestHandComputedWindow(t *testing.T) {
	v := windowRow(0, trace.Trace{
		{At: 10 * ms, Dir: dci.Downlink, Bytes: 100},
		{At: 30 * ms, Dir: dci.Uplink, Bytes: 300},
		{At: 70 * ms, Dir: dci.Downlink, Bytes: 200},
	}, 100*ms)
	check := func(name string, idx int, want float64) {
		t.Helper()
		if math.Abs(v[idx]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, v[idx], want)
		}
	}
	check("frame_count", 0, 3)
	check("dl_count", 1, 2)
	check("ul_count", 2, 1)
	check("total_bytes", 3, 600)
	check("dl_bytes", 4, 300)
	check("ul_bytes", 5, 300)
	check("size_mean", 6, 200)
	check("size_min", 8, 100)
	check("size_max", 9, 300)
	check("iat_mean", 10, 30) // gaps 20 ms and 40 ms
	check("iat_max", 12, 40)
	check("cumulative_time", 13, 60)
	check("dl_byte_ratio", 14, 0.5)
	check("active_fraction", 16, 0.03) // 3 of 100 one-ms bins
	check("size_p50", 17, 200)
}

func TestSingleRecordWindow(t *testing.T) {
	v := windowRow(0, trace.Trace{{At: 5 * ms, Dir: dci.Downlink, Bytes: 64}}, 100*ms)
	if v[10] != 100 { // iat_mean falls back to the window width in ms
		t.Fatalf("iat_mean for lone record = %v, want 100", v[10])
	}
	if v[6] != 64 || v[17] != 64 {
		t.Fatal("size stats for lone record wrong")
	}
}

// TestMedian pins the median both the extractor and the oracle use: odd
// and even lengths, duplicates, and unsorted input, which it sorts in
// place.
func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"one", []float64{7}, 7},
		{"odd", []float64{1, 2, 3}, 2},
		{"even", []float64{1, 2, 3, 4}, 2.5},
		{"duplicates", []float64{5, 5, 1, 5}, 5},
		{"all equal", []float64{3, 3, 3, 3, 3}, 3},
		{"unsorted odd", []float64{900, 40, 1500, 40, 7}, 40},
		{"unsorted even", []float64{120, 8, 64, 2000, 16, 1}, 40},
	} {
		v := append([]float64(nil), tc.in...)
		if got := median(v); got != tc.want {
			t.Errorf("%s: median(%v) = %v, want %v", tc.name, tc.in, got, tc.want)
		}
		for i := 1; i < len(v); i++ {
			if v[i] < v[i-1] {
				t.Errorf("%s: argument left unsorted: %v", tc.name, v)
				break
			}
		}
	}
}
