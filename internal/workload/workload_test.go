package workload

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/dag"
)

func TestAllTemplatesValid(t *testing.T) {
	for q := 1; q <= NumQueries; q++ {
		for _, s := range Sizes {
			j := TPCHJob(q, s)
			if err := j.Validate(); err != nil {
				t.Fatalf("q%d size %v: %v", q, s, err)
			}
			if j.Inflation == nil {
				t.Fatalf("q%d: no inflation curve", q)
			}
		}
	}
}

func TestTemplatesDeterministic(t *testing.T) {
	a := TPCHJob(9, 100)
	b := TPCHJob(9, 100)
	if a.NumStages() != b.NumStages() || a.TotalWork() != b.TotalWork() {
		t.Fatal("same (query, size) produced different jobs")
	}
	for i := range a.Stages {
		if a.Stages[i].NumTasks != b.Stages[i].NumTasks {
			t.Fatal("stage task counts differ")
		}
	}
}

func TestWorkScalesWithSize(t *testing.T) {
	for q := 1; q <= NumQueries; q++ {
		w2 := TPCHJob(q, 2).TotalWork()
		w100 := TPCHJob(q, 100).TotalWork()
		if w100 <= w2 {
			t.Fatalf("q%d: work does not grow with size (%v vs %v)", q, w2, w100)
		}
		ratio := w100 / w2
		if ratio < 40 || ratio > 60 { // work is linear in size: 100/2 = 50
			t.Fatalf("q%d: work ratio %v, want ≈50", q, ratio)
		}
	}
}

func TestHeavyTail(t *testing.T) {
	// §7.2: 23% of the jobs contain 82% of the total work. Assert the
	// qualitative property: the top quartile of jobs holds well over half
	// the work.
	rng := rand.New(rand.NewSource(42))
	jobs := Batch(rng, 400)
	works := make([]float64, len(jobs))
	var total float64
	for i, j := range jobs {
		works[i] = j.TotalWork()
		total += works[i]
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(works)))
	var top float64
	for i := 0; i < len(works)/4; i++ {
		top += works[i]
	}
	if frac := top / total; frac < 0.55 {
		t.Fatalf("top 25%% of jobs hold only %.0f%% of work, want heavy tail", frac*100)
	}
}

func TestSweetSpots(t *testing.T) {
	// Fig. 2's contrast: Q9 at 100 GB scales to ~40 tasks, Q2 stops at ~20,
	// Q9 at 2 GB needs only a handful.
	if s := SweetSpot(9, 100); math.Abs(s-40) > 1 {
		t.Fatalf("Q9@100GB sweet spot = %v, want ≈40", s)
	}
	if s := SweetSpot(2, 100); math.Abs(s-20) > 1 {
		t.Fatalf("Q2@100GB sweet spot = %v, want ≈20", s)
	}
	if s := SweetSpot(9, 2); s > 10 {
		t.Fatalf("Q9@2GB sweet spot = %v, want small", s)
	}
}

func TestInflationMonotone(t *testing.T) {
	j := TPCHJob(9, 100)
	prev := 0.0
	for p := 1; p <= 100; p++ {
		m := j.Inflation(p)
		if m < 1 || m > 2 {
			t.Fatalf("inflation(%d) = %v outside [1,2]", p, m)
		}
		if m < prev {
			t.Fatalf("inflation not monotone at p=%d", p)
		}
		prev = m
	}
	if j.Inflation(1) != 1 {
		t.Fatal("inflation at parallelism 1 must be 1")
	}
}

func TestBatchArrivals(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	jobs := Batch(rng, 20)
	if len(jobs) != 20 {
		t.Fatalf("got %d jobs", len(jobs))
	}
	for i, j := range jobs {
		if j.Arrival != 0 {
			t.Fatalf("batch job %d arrives at %v", i, j.Arrival)
		}
		if j.ID != i {
			t.Fatalf("job %d has ID %d", i, j.ID)
		}
	}
}

func TestPoissonArrivals(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	jobs := Poisson(rng, 2000, 45)
	prev := 0.0
	var sumIAT float64
	for _, j := range jobs {
		if j.Arrival < prev {
			t.Fatal("arrivals not monotone")
		}
		sumIAT += j.Arrival - prev
		prev = j.Arrival
	}
	mean := sumIAT / float64(len(jobs))
	if mean < 40 || mean > 50 {
		t.Fatalf("mean IAT = %v, want ≈45", mean)
	}
}

func TestIATForLoad(t *testing.T) {
	iat := IATForLoad(0.85, 50)
	if iat <= 0 {
		t.Fatalf("IAT = %v", iat)
	}
	// Round trip: work rate / capacity == load.
	load := MeanTPCHWork() / (iat * 50)
	if math.Abs(load-0.85) > 1e-9 {
		t.Fatalf("load = %v, want 0.85", load)
	}
}

// sharesDAG reports whether c is an instance of j: the same Stage pointers,
// cap-clipped, and the same level plan.
func sharesDAG(c, j *dag.Job) bool {
	if c == j || len(c.Stages) != len(j.Stages) || cap(c.Stages) != len(c.Stages) || c.Levels() != j.Levels() {
		return false
	}
	for i := range j.Stages {
		if c.Stages[i] != j.Stages[i] {
			return false
		}
	}
	return true
}

// mustPanic fails t unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestCloneAllSharesDAG(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	jobs := Batch(rng, 3)
	clones := CloneAll(jobs)
	for i, c := range clones {
		if !sharesDAG(c, jobs[i]) {
			t.Fatalf("clone %d does not share its job's DAG", i)
		}
	}
	clones[0].ID, clones[0].Arrival = 99, 5
	if jobs[0].ID != 0 || jobs[0].Arrival != 0 {
		t.Fatal("CloneAll shares per-instance fields")
	}
	mustPanic(t, "AddEdge on a clone", func() { clones[1].AddEdge(0, 1) })
}

func TestWithArrivalsSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	jobs := Batch(rng, 3)
	out := WithArrivals(jobs, []float64{30, 10, 20})
	if out[0].Arrival != 10 || out[1].Arrival != 20 || out[2].Arrival != 30 {
		t.Fatalf("arrivals not sorted: %v %v %v", out[0].Arrival, out[1].Arrival, out[2].Arrival)
	}
	for i, j := range out {
		if j.ID != i {
			t.Fatal("IDs not re-stamped after sort")
		}
	}
}

func TestIndustrialTraceStats(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	jobs := IndustrialTrace(rng, DefaultIndustrialTraceConfig(2000))
	atLeast4 := 0
	maxStages := 0
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
		if j.NumStages() >= 4 {
			atLeast4++
		}
		if j.NumStages() > maxStages {
			maxStages = j.NumStages()
		}
	}
	frac := float64(atLeast4) / float64(len(jobs))
	if frac < 0.5 || frac > 0.7 {
		t.Fatalf("%.0f%% of jobs have ≥4 stages, want ≈59%%", frac*100)
	}
	if maxStages < 50 {
		t.Fatalf("max stage count %d, want a long tail", maxStages)
	}
}

func TestSampleTPCHRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q, s := SampleTPCH(rng)
		if q < 1 || q > NumQueries {
			return false
		}
		for _, v := range Sizes {
			if v == s {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// jobDigest hashes every field of one job (see golden_test.go).
func jobDigest(j *dag.Job) uint64 { return digestJobs([]*dag.Job{j}) }

// TestTPCHJobInstancesShareTemplate checks that an instance is its
// template's DAG under its own identity: it hashes like a fresh uncached
// build, its stages and level plan are the template's, its ID and arrival
// are its own, and it refuses AddEdge. And eight goroutines building the
// table from scratch through Batch, Poisson and TPCHJob at once (the race
// detector watches under `make race`) must each generate what a serial run
// does.
func TestTPCHJobInstancesShareTemplate(t *testing.T) {
	for _, c := range []struct {
		q    int
		size float64
		i    int
	}{{9, 100, 5}, {2, 2, 0}, {21, 50, 4}} {
		want := jobDigest(buildTPCHJob(c.q, c.size))
		a, b := TPCHJob(c.q, c.size), TPCHJob(c.q, c.size)
		if jobDigest(a) != want || jobDigest(b) != want {
			t.Fatalf("q%d@%v: instance differs from a fresh build", c.q, c.size)
		}
		tmpl := tpchTemplate(c.q, c.i)
		if !sharesDAG(a, tmpl) || !sharesDAG(b, tmpl) {
			t.Fatalf("q%d@%v: instance does not share its template's stages and plan", c.q, c.size)
		}
		a.ID, a.Arrival = 7, 11
		if b.ID != 0 || b.Arrival != 0 || tmpl.ID != 0 || tmpl.Arrival != 0 {
			t.Fatalf("q%d@%v: instances share ID or arrival", c.q, c.size)
		}
		mustPanic(t, "AddEdge on an instance", func() { a.AddEdge(0, len(a.Stages)-1) })
		if jobDigest(TPCHJob(c.q, c.size)) != want {
			t.Fatalf("q%d@%v: a refused AddEdge changed the template", c.q, c.size)
		}
	}

	generate := func(g int) uint64 {
		rng := rand.New(rand.NewSource(int64(g)))
		jobs := append(Batch(rng, 30), Poisson(rng, 30, IATForLoad(0.7, 10))...)
		for q := 1; q <= NumQueries; q++ {
			jobs = append(jobs, TPCHJob(q, Sizes[(q+g)%len(Sizes)]))
		}
		return digestJobs(jobs)
	}
	want := make([]uint64, 8)
	for g := range want {
		want[g] = generate(g)
	}
	templates = [NumQueries][len(Sizes)]templateSlot{}
	got := make([]uint64, len(want))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = generate(g)
		}(g)
	}
	wg.Wait()
	for g := range want {
		if got[g] != want[g] {
			t.Fatalf("goroutine %d generated different jobs concurrently", g)
		}
	}
}

// TestBatchAllocs bounds what one generated job costs: its Job struct and
// its share of the result slice, never a copy of its template's stages or a
// rebuild from seeded rng sources.
func TestBatchAllocs(t *testing.T) {
	for q := 1; q <= NumQueries; q++ {
		for i := range Sizes {
			tpchTemplate(q, i) // build every template first
		}
	}
	rng := rand.New(rand.NewSource(1))
	if n := testing.AllocsPerRun(20, func() { Batch(rng, 20) }) / 20; n > 2 {
		t.Fatalf("Batch makes %.2f allocations per job, want ≤ 2", n)
	}
}
