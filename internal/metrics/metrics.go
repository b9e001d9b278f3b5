// Package metrics provides the statistics the evaluation figures are built
// from: means, percentiles, concurrent-job time series, per-job comparisons
// between schedulers, and grouping by quantiles.
package metrics

import (
	"math"
	"sort"

	"repro/internal/sim"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (p in [0,100]) by linear
// interpolation over a copy of xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// JCTs extracts completion-time-minus-arrival for all completed jobs.
func JCTs(records []sim.JobRecord) []float64 {
	out := make([]float64, len(records))
	for i, r := range records {
		out[i] = r.JCT()
	}
	return out
}

// SeriesPoint is one (time, value) sample.
type SeriesPoint struct {
	Time  float64
	Value float64
}

// ConcurrentJobs reconstructs the number-of-jobs-in-system time series from
// job records (Fig. 10a): +1 at each arrival, −1 at each completion.
func ConcurrentJobs(records []sim.JobRecord) []SeriesPoint {
	type ev struct {
		t float64
		d float64
	}
	evs := make([]ev, 0, 2*len(records))
	for _, r := range records {
		evs = append(evs, ev{r.Arrival, 1}, ev{r.Completion, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].d < evs[j].d
	})
	var out []SeriesPoint
	cur := 0.0
	for _, e := range evs {
		cur += e.d
		out = append(out, SeriesPoint{Time: e.t, Value: cur})
	}
	return out
}

// PairedRatio matches records of two runs by job ID and returns, in a's
// record order, the records of a whose job b also completed and each one's
// ratio metric(a)/metric(b). Jobs missing from b, or whose metric there is
// 0, are skipped. It powers the normalized comparison of Fig. 12a.
func PairedRatio(a, b []sim.JobRecord, metric func(sim.JobRecord) float64) (paired []sim.JobRecord, ratios []float64) {
	bv := make(map[int]float64, len(b))
	for _, r := range b {
		bv[r.ID] = metric(r)
	}
	for _, r := range a {
		if denom, ok := bv[r.ID]; ok && denom != 0 {
			paired = append(paired, r)
			ratios = append(ratios, metric(r)/denom)
		}
	}
	return paired, ratios
}

// Bin is one bucket of a grouped statistic.
type Bin struct {
	// Lo and Hi bound the grouping key.
	Lo, Hi float64
	// Mean is the mean of the binned values.
	Mean float64
	// N counts members.
	N int
}

// GroupByQuantiles groups (key, value) pairs into nbins equal-population
// bins by key and returns each bin's mean value (Fig. 12a's
// job-duration-by-total-work breakdown).
func GroupByQuantiles(keys, values []float64, nbins int) []Bin {
	if len(keys) != len(values) || len(keys) == 0 || nbins < 1 {
		return nil
	}
	type kv struct{ k, v float64 }
	pairs := make([]kv, len(keys))
	for i := range keys {
		pairs[i] = kv{keys[i], values[i]}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	bins := make([]Bin, 0, nbins)
	per := len(pairs) / nbins
	if per == 0 {
		per = 1
	}
	for b := 0; b < nbins && b*per < len(pairs); b++ {
		lo := b * per
		hi := lo + per
		if b == nbins-1 || hi > len(pairs) {
			hi = len(pairs)
		}
		seg := pairs[lo:hi]
		var sum float64
		for _, p := range seg {
			sum += p.v
		}
		bins = append(bins, Bin{
			Lo:   seg[0].k,
			Hi:   seg[len(seg)-1].k,
			Mean: sum / float64(len(seg)),
			N:    len(seg),
		})
	}
	return bins
}
