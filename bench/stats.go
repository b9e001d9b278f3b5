package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples at
// or below it. Nearest rank never interpolates, so every reported latency
// is one that was actually observed. An empty sample yields NaN.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// median returns the middle of xs (mean of the two middles for even n)
// without reordering the caller's slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method: positions
// (n+1)/4 and 3(n+1)/4, linearly interpolated) —
// the rule the PR driver applies to the benchmark's spread, so the -aa gate
// and the driver agree to the last digit. Fewer than two samples have no
// spread: both quartiles are the sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	s := sortedCopy(xs)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 3 cut points, 1-based
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4 // outside 0..4 at the ends: Python extrapolates there
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median: the
// run-to-run noise figure every bound in BENCHMARK.json is judged against.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// mean returns the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// pool merges per-client latency samples into one sorted sample of
// microseconds. Percentiles are taken over the pooled sample, never
// averaged across clients: the p99 of a two-client run is the value 1% of
// all events exceeded, whichever client they belonged to.
func pool(perClient ...[]int64) []float64 {
	n := 0
	for _, c := range perClient {
		n += len(c)
	}
	out := make([]float64, 0, n)
	for _, c := range perClient {
		for _, ns := range c {
			out = append(out, float64(ns)/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
