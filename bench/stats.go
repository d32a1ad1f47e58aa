package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by
// nearest rank: the smallest value with at least p% of the samples at or
// below it. It returns 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := nearestRank(p, n)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// nearestRank is ceil(p% of n), forgiving the binary rounding of p/100
// (99.9% of 10,000 is rank 9,990, not 9,991).
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailPercentile picks the highest of p90, p99, p99.9 that still has at
// least ten samples beyond it, so the printed tail is never a handful of
// outliers. With fewer than 100 samples none qualifies and it returns 50.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 90} {
		if n-nearestRank(p, n) >= 10 {
			return p
		}
	}
	return 50
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the p50 by nearest rank of an unsorted sample.
func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// quartiles returns the first and third quartile by the method of Python's
// statistics.quantiles(v, n=4) (exclusive), which is what the acceptance
// check of the benchmark uses. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	at := func(i int) float64 {
		// Position i*(n+1)/4 in 1-based ranks, clamped to 1..n-1, then
		// linearly interpolated (extrapolated for tiny samples), exactly
		// as statistics.quantiles does.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

func sumOf(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}
