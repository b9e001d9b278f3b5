package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct{ p, want float64 }{
		{0, 10}, {10, 10}, {11, 20}, {50, 50}, {51, 60}, {99, 100}, {100, 100},
	} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample must be NaN")
	}
	// 1000 samples: exactly ten lie beyond the p99.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

// The expected values are statistics.quantiles(xs, n=4) and
// statistics.median(xs) from CPython 3, which is what the PR driver runs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 7}, 4.5, 6, 7.5},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
		{[]float64{1.5, 2.5, 9, 4, 4, 7, 8}, 2.5, 4, 8},
	} {
		in := append([]float64(nil), tc.xs...)
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 || median(tc.xs) != tc.med {
			t.Errorf("%v: got q1 %v median %v q3 %v, want %v %v %v", tc.xs, q1, median(tc.xs), q3, tc.q1, tc.med, tc.q3)
		}
		for i := range in {
			if in[i] != tc.xs[i] {
				t.Fatalf("quartiles/median reordered the caller's slice: %v -> %v", in, tc.xs)
			}
		}
	}
	if got, want := spread([]float64{10, 20, 30, 40}), 1.0; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestPoolMergesClientsBeforeTakingPercentiles(t *testing.T) {
	// One fast client, one slow: the pooled p99 is the slow client's, which
	// averaging per-client percentiles would have halved.
	fast, slow := make([]int64, 99), []int64{1_000_000}
	for i := range fast {
		fast[i] = 1000
	}
	p := pool(fast, slow)
	if len(p) != 100 || p[0] != 1 || p[99] != 1000 {
		t.Fatalf("pool: got %d samples, first %v last %v; want 100, 1, 1000 (µs, sorted)", len(p), p[0], p[99])
	}
	if got := percentile(p, 99); got != 1 {
		t.Errorf("pooled p99 = %v µs, want 1", got)
	}
	if got := percentile(p, 100); got != 1000 {
		t.Errorf("pooled max = %v µs, want 1000", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}
