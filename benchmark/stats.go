package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of vals by the
// nearest-rank rule: the smallest sample with at least p% of the
// samples at or below it. It returns 0 for an empty input and does not
// modify vals.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return sorted[rankIndex(len(sorted), p)]
}

// rankIndex is the 0-based nearest-rank index of the p-th percentile in
// a sorted sample of n.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// samplesBeyond is how many of n samples lie strictly above the
// nearest-rank p-th percentile.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive
// method Python's statistics.quantiles(values, n=4) uses, which is what
// the driver computes spreads with. Fewer than two samples have no
// spread: both quartiles are the sample itself (or 0).
func quartiles(vals []float64) (q1, q3 float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return vals[0], vals[0]
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	at := func(k int) float64 {
		// As in CPython: the index is clamped to 1..n-1 first, so small
		// samples extrapolate past their ends.
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median, the
// run-to-run noise figure bounds are judged against.
func spread(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / math.Abs(m)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a metric whose denominator never
// occurred in the run reads 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
