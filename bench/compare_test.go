package main

import "testing"

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "event_p50_us", Unit: "us", Better: "lower", Bound: 0.07}
	higher := metricSpec{Name: "events_per_s", Unit: "1/s", Better: "higher", Bound: 0.07}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{100, 130, 80, 100, 125, 75, 100, 120, 85, 100}
	for _, tc := range []struct {
		name string
		a, b []float64
		spec metricSpec
		want verdict
	}{
		{"same runs", base, base, lower, unchanged},
		{"10% faster, every pair", base, shift(base, 0.9), lower, improved},
		{"10% slower", base, shift(base, 1.1), lower, regressed},
		{"5% slower is inside the 7% bound", base, shift(base, 1.05), lower, unchanged},
		{"10% more throughput", base, shift(base, 1.1), higher, improved},
		{"10% less throughput", base, shift(base, 0.9), higher, regressed},
		{"gain smaller than the base's own quartile distance", base, shift(base, 0.995), lower, unchanged},
		{"base spread wider than the bound", noisy, shift(noisy, 1.02), lower, unresolved},
		{"wide spread but every B beats every A", noisy, shift(base, 0.5), lower, improved},
		{"no bound, no verdict", base, shift(base, 2), metricSpec{Name: "rpcsvc.rtt_us", Better: "lower"}, unbounded},
	} {
		if got := judge(tc.a, tc.b, tc.spec).Verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	// Eight wins in ten is not nine tenths.
	b := shift(base, 0.9)
	b[0], b[1] = 200, 200
	if got := judge(base, b, lower).Verdict; got == improved {
		t.Errorf("8/10 pair wins judged %q", got)
	}
}

func TestCompareRecordsPairsByWorkload(t *testing.T) {
	rec := func(w string, v float64) *record {
		return &record{Workload: w, Correct: true, Metrics: map[string]value{"event_p50_us": {v, "us"}, "avg_jct_s": {5, "sim_s"}}}
	}
	as := []*record{rec("session-stream", 100), rec("session-churn", 200), rec("session-stream", 102)}
	bs := []*record{rec("session-stream", 100), rec("session-churn", 300), rec("session-stream", 102)}
	got := map[string]verdict{}
	for _, c := range compareRecords(as, bs) {
		got[c.Workload+"/"+c.Metric] = c.Verdict
	}
	want := map[string]verdict{
		"session-stream/event_p50_us": unchanged,
		"session-churn/event_p50_us":  regressed,
		"session-stream/avg_jct_s":    unbounded,
		"session-churn/avg_jct_s":     unbounded,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: verdict %q, want %q", k, got[k], v)
		}
	}
}
