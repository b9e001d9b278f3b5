package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean = %v", m)
	}
	if Mean(nil) != 0 {
		t.Fatal("empty input mishandled")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := map[float64]float64{0: 1, 50: 3, 100: 5, 25: 2, 75: 4}
	for p, want := range cases {
		if got := Percentile(xs, p); math.Abs(got-want) > 1e-12 {
			t.Fatalf("p%v = %v, want %v", p, got, want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile")
	}
}

func TestPercentileProperties(t *testing.T) {
	f := func(raw [9]float64, p float64) bool {
		p = math.Mod(math.Abs(p), 100)
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		got := Percentile(xs, p)
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return got >= s[0]-1e-9 && got <= s[len(s)-1]+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentJobs(t *testing.T) {
	recs := []sim.JobRecord{
		{ID: 0, Arrival: 0, Completion: 10},
		{ID: 1, Arrival: 2, Completion: 5},
		{ID: 2, Arrival: 3, Completion: 12},
	}
	pts := ConcurrentJobs(recs)
	// peak concurrency is 3 in [3,5]
	peak := 0.0
	for _, p := range pts {
		if p.Value > peak {
			peak = p.Value
		}
	}
	if peak != 3 {
		t.Fatalf("peak = %v", peak)
	}
	if pts[len(pts)-1].Value != 0 {
		t.Fatal("series does not drain to zero")
	}
}

func TestJCTs(t *testing.T) {
	recs := []sim.JobRecord{{Arrival: 1, Completion: 4}, {Arrival: 2, Completion: 10}}
	j := JCTs(recs)
	if j[0] != 3 || j[1] != 8 {
		t.Fatalf("jcts = %v", j)
	}
}

func TestPairedRatio(t *testing.T) {
	a := []sim.JobRecord{{ID: 2, Arrival: 0, Completion: 10}, {ID: 9, Arrival: 0, Completion: 1}, {ID: 1, Arrival: 0, Completion: 5}}
	b := []sim.JobRecord{{ID: 1, Arrival: 0, Completion: 10}, {ID: 2, Arrival: 0, Completion: 10}}
	paired, r := PairedRatio(a, b, sim.JobRecord.JCT)
	if len(paired) != 2 || len(r) != 2 {
		t.Fatalf("matched %d records, %d ratios", len(paired), len(r))
	}
	// a's record order, not b's or the IDs'.
	if paired[0].ID != 2 || paired[1].ID != 1 || r[0] != 1.0 || r[1] != 0.5 {
		t.Fatalf("paired %v, ratios %v", paired, r)
	}
}

func TestGroupByQuantiles(t *testing.T) {
	keys := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	vals := []float64{10, 10, 20, 20, 30, 30, 40, 40}
	bins := GroupByQuantiles(keys, vals, 4)
	if len(bins) != 4 {
		t.Fatalf("bins = %d", len(bins))
	}
	want := []float64{10, 20, 30, 40}
	for i, b := range bins {
		if b.Mean != want[i] || b.N != 2 {
			t.Fatalf("bin %d = %+v", i, b)
		}
	}
	// keys must be ordered across bins
	for i := 1; i < len(bins); i++ {
		if bins[i].Lo < bins[i-1].Hi {
			t.Fatal("bins overlap")
		}
	}
	if GroupByQuantiles(keys, vals[:3], 2) != nil {
		t.Fatal("length mismatch accepted")
	}
}
