package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for it to be trusted (choosing-metrics: "the highest percentile that
// has at least ten samples beyond it").
const minBeyond = 10

// nearestRank is the 1-based position of the p-th percentile (0 < p <=
// 100) in a sorted sample of n: the smallest rank with at least p% of
// the sample at or below it, kept inside [1, n].
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n) / 100))
	if r < 1 {
		return 1
	}
	if r > n {
		return n
	}
	return r
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile of xs. Nearest
// rank always returns a measured value, never an interpolation, so a
// reported number is one some operation really took.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[nearestRank(len(xs), p)-1]
}

// beyond counts the samples strictly above the nearest-rank p-th
// percentile position.
func beyond(n int, p float64) int { return n - nearestRank(n, p) }

// supported reports whether a sample of n has at least minBeyond samples
// beyond its p-th percentile.
func supported(n int, p float64) bool { return beyond(n, p) >= minBeyond }

// median is the 50th percentile with the usual mean-of-middle-two for an
// even sample — rep counts here are small (2-5), where nearest rank
// would always pick the faster half.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile by the method of
// Python's statistics.quantiles(xs, n=4) (exclusive), which is what the
// acceptance procedure computes spreads with. Fewer than two samples
// have no spread: both quartiles are the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := sorted(xs)
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure every bound is judged against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 || len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	var m float64
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}
