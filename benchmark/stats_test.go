package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, tc := range []struct{ p, want float64 }{
		{50, 3}, {90, 5}, {100, 5}, {20, 1}, {21, 2}, {1, 1},
	} {
		if got := percentile(vals, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", vals, tc.p, got, tc.want)
		}
	}
	if vals[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
	if got := percentile(seq(100), 90); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
}

func TestSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{
		{100, 90, 10}, {100, 99, 1}, {99, 90, 9}, {1000, 99, 10}, {60, 90, 6}, {60, 80, 12}, {0, 90, 0},
	} {
		if got := samplesBeyond(tc.n, tc.p); got != tc.want {
			t.Errorf("samplesBeyond(%d, %g) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}

// The quartiles must be the ones Python's statistics.quantiles(v, n=4)
// gives, because that is what the driver judges spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 8, 4}, 2.5, 9.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(tc.vals)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.vals, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSpreadAndMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := spread(seq(10)); math.Abs(got-1) > 1e-12 { // (8.25-2.75)/5.5
		t.Errorf("spread(1..10) = %g, want 1", got)
	}
	if got := spread([]float64{3, 3, 3}); got != 0 {
		t.Errorf("spread of equal values = %g, want 0", got)
	}
	if got := spread(nil); got != 0 {
		t.Errorf("spread(nil) = %g, want 0", got)
	}
}
