// Package workload generates the job workloads used throughout the paper's
// evaluation: a TPC-H-like query mix (22 query DAG templates × 6 input
// sizes, §7.2), batched and Poisson arrival processes, and a synthetic
// industrial trace standing in for the Alibaba production trace (§7.3).
//
// The TPC-H substitution preserves the properties the evaluation depends
// on: heavy-tailed work distribution (a small fraction of jobs carries most
// of the work), diverse DAG shapes (chains, diamonds, fan-ins, trees), and
// per-query parallelism "sweet spots" (Fig. 2's Q2 vs Q9 contrast), encoded
// as a work-inflation curve beyond each query's inherent parallelism.
//
// A (query, size) pair fixes a job completely, so each of the 22 × 6
// templates is built once, on first use, and every instance TPCHJob hands
// out is a Clone of it: its own ID, arrival and name on the template's
// shared, read-only stages and level plan (see package dag). A template
// draws only from its own seeded sources,
// and the arrival generators draw from the caller's rng exactly what a
// fresh build per job would: a seed generates the same jobs, bit for bit,
// whichever templates were built before (TestGeneratedWorkloadGolden).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/dag"
)

// Sizes are the six TPC-H input sizes in GB used by the paper (§7.2).
var Sizes = [...]float64{2, 5, 10, 20, 50, 100}

// NumQueries is the number of TPC-H query templates.
const NumQueries = 22

// workPerGB converts input gigabytes to task-seconds of total work.
const workPerGB = 60.0

// shape identifies the DAG topology family of a query template.
type shape int

const (
	shapeChain shape = iota
	shapeDiamond
	shapeFanIn
	shapeTree
	shapeGeneral
)

// querySpec captures the per-query characteristics that differentiate the
// 22 templates.
type querySpec struct {
	shape      shape
	stages     int
	workFactor float64 // multiplies the per-GB work
	sweetBase  float64 // parallelism sweet spot at 100 GB (Fig. 2)
	wide       bool    // whether work concentrates in wide, task-rich stages
}

// querySpecs defines the 22 templates. Q2 (index 1) is a narrow chain that
// stops scaling around 20 parallel tasks at 100 GB; Q9 (index 8) is a wide
// multi-join that scales to about 40, matching Fig. 2.
var querySpecs = [NumQueries]querySpec{
	{shapeGeneral, 8, 1.0, 32, true},  // Q1
	{shapeChain, 6, 0.6, 20, false},   // Q2
	{shapeFanIn, 7, 1.1, 35, true},    // Q3
	{shapeDiamond, 5, 0.7, 25, false}, // Q4
	{shapeTree, 9, 1.4, 38, true},     // Q5
	{shapeChain, 3, 0.4, 15, false},   // Q6
	{shapeGeneral, 10, 1.3, 36, true}, // Q7
	{shapeTree, 12, 1.6, 40, true},    // Q8
	{shapeFanIn, 11, 2.0, 40, true},   // Q9
	{shapeDiamond, 7, 0.9, 30, false}, // Q10
	{shapeChain, 5, 0.5, 18, false},   // Q11
	{shapeDiamond, 6, 0.8, 26, false}, // Q12
	{shapeChain, 4, 0.6, 22, false},   // Q13
	{shapeFanIn, 6, 0.9, 28, true},    // Q14
	{shapeChain, 5, 0.7, 24, false},   // Q15
	{shapeGeneral, 8, 1.0, 30, false}, // Q16
	{shapeFanIn, 9, 1.5, 34, true},    // Q17
	{shapeTree, 10, 1.7, 38, true},    // Q18
	{shapeDiamond, 6, 0.8, 27, false}, // Q19
	{shapeGeneral, 11, 1.2, 33, true}, // Q20
	{shapeTree, 14, 1.8, 40, true},    // Q21
	{shapeGeneral, 7, 0.9, 29, false}, // Q22
}

// buildEdges constructs the edge list of a template deterministically from
// the query number, so every instance of a query shares one DAG shape.
func buildEdges(q int, spec querySpec) [][2]int {
	rng := rand.New(rand.NewSource(int64(1000 + q)))
	n := spec.stages
	var edges [][2]int
	switch spec.shape {
	case shapeChain:
		for i := 0; i+1 < n; i++ {
			edges = append(edges, [2]int{i, i + 1})
		}
	case shapeDiamond:
		// 0 fans out to the middle stages, which all join into n-1.
		for i := 1; i+1 < n; i++ {
			edges = append(edges, [2]int{0, i}, [2]int{i, n - 1})
		}
		if n == 2 {
			edges = append(edges, [2]int{0, 1})
		}
	case shapeFanIn:
		// Independent scan branches of length 1–2 feed a join spine.
		spine := n / 3
		if spine < 1 {
			spine = 1
		}
		branchStart := spine
		for i := 0; i+1 < spine; i++ {
			edges = append(edges, [2]int{i, i + 1})
		}
		for b := branchStart; b < n; b++ {
			edges = append(edges, [2]int{b, rng.Intn(spine)})
		}
	case shapeTree:
		// Binary-ish reduction tree: node i feeds (i-1)/2.
		for i := 1; i < n; i++ {
			edges = append(edges, [2]int{i, (i - 1) / 2})
		}
	case shapeGeneral:
		// Layered random DAG: every non-root gets 1–2 parents from below.
		for i := 1; i < n; i++ {
			p := rng.Intn(i)
			edges = append(edges, [2]int{p, i})
			if i > 2 && rng.Float64() < 0.4 {
				p2 := rng.Intn(i)
				if p2 != p {
					edges = append(edges, [2]int{p2, i})
				}
			}
		}
	}
	return edges
}

// SweetSpot returns the parallelism sweet spot of query q (1-based) at the
// given input size, scaling with the square root of size as observed in
// Fig. 2 (Q9 needs ~40 tasks at 100 GB but only ~5 at 2 GB).
func SweetSpot(q int, sizeGB float64) float64 {
	spec := querySpecs[q-1]
	s := spec.sweetBase * math.Sqrt(sizeGB/100)
	if s < 2 {
		s = 2
	}
	return s
}

// inflation returns the work-inflation curve for query q at the given size:
// a task-duration multiplier that grows once parallelism exceeds the sweet
// spot (modelling wider shuffles, §6.2 item 3), capped at 2×.
func inflation(q int, sizeGB float64) func(int) float64 {
	sweet := SweetSpot(q, sizeGB)
	return func(p int) float64 {
		if float64(p) <= sweet {
			return 1
		}
		m := 1 + 0.5*(float64(p)-sweet)/sweet
		if m > 2 {
			m = 2
		}
		return m
	}
}

// TPCHJob instantiates query q (1-based, 1..22) at the given input size.
// The job's stages, work split and memory requests are deterministic per
// (q, size), so an instance is a Clone of that pair's template, built once
// on first use: it shares the template's stages and level plan, which are
// read-only, and the caller assigns ID and arrival time. A size outside
// Sizes is built afresh, uncached.
func TPCHJob(q int, sizeGB float64) *dag.Job {
	if q < 1 || q > NumQueries {
		panic(fmt.Sprintf("workload: query %d out of range", q))
	}
	for i, s := range Sizes {
		if s == sizeGB {
			return tpchTemplate(q, i).Clone()
		}
	}
	return buildTPCHJob(q, sizeGB)
}

// templates holds each (query, size) job, built on first use. Templates are
// never handed out; callers get clones that share their DAG.
var templates [NumQueries][len(Sizes)]templateSlot

type templateSlot struct {
	once sync.Once
	job  *dag.Job
}

// tpchTemplate returns the shared template of query q at Sizes[i].
func tpchTemplate(q, i int) *dag.Job {
	t := &templates[q-1][i]
	t.once.Do(func() { t.job = buildTPCHJob(q, Sizes[i]) })
	return t.job
}

// buildTPCHJob builds query q at the given size from its seeded rng sources.
func buildTPCHJob(q int, sizeGB float64) *dag.Job {
	spec := querySpecs[q-1]
	rng := rand.New(rand.NewSource(int64(5000 + q)))
	n := spec.stages
	job := &dag.Job{Name: fmt.Sprintf("tpch-q%d-%.0fg", q, sizeGB)}

	// Split total work across stages: wide queries concentrate work in a few
	// task-rich stages; narrow ones spread it more evenly.
	weights := make([]float64, n)
	var wsum float64
	for i := range weights {
		w := 0.2 + rng.Float64()
		if spec.wide && rng.Float64() < 0.3 {
			w *= 4 // a heavy scan/join stage
		}
		weights[i] = w
		wsum += w
	}
	totalWork := workPerGB * sizeGB * spec.workFactor
	for i := 0; i < n; i++ {
		stageWork := totalWork * weights[i] / wsum
		// Task count scales with input size; wide stages get more, shorter
		// tasks. Narrow queries cap task counts near their inherent
		// parallelism (the sweet spot), which is what stops Q2-like queries
		// from scaling past ~20 parallel tasks in Fig. 2.
		perGB := 0.3 + rng.Float64()*0.7
		taskCap := int(spec.sweetBase)
		if spec.wide {
			perGB *= 2.5
			taskCap = 300
		}
		tasks := int(math.Ceil(perGB * sizeGB))
		if tasks < 1 {
			tasks = 1
		}
		if tasks > taskCap {
			tasks = taskCap
		}
		job.Stages = append(job.Stages, &dag.Stage{
			ID:           i,
			Name:         fmt.Sprintf("q%d-s%d", q, i),
			NumTasks:     tasks,
			TaskDuration: stageWork / float64(tasks),
			ShuffleMB:    stageWork * (1 + rng.Float64()),
			MemReq:       0.05 + rng.Float64()*0.95, // (0,1] as in §7.3
			CPUReq:       1,
		})
	}
	for _, e := range buildEdges(q, spec) {
		job.AddEdge(e[0], e[1])
	}
	job.Inflation = inflation(q, sizeGB)
	if err := job.Validate(); err != nil {
		panic(fmt.Sprintf("workload: template q%d invalid: %v", q, err))
	}
	return job
}

// SampleTPCH draws a uniformly random (query, size) pair, the sampling the
// paper uses for both batched and continuous arrivals (§7.2).
func SampleTPCH(rng *rand.Rand) (q int, sizeGB float64) {
	return 1 + rng.Intn(NumQueries), Sizes[rng.Intn(len(Sizes))]
}

// RandomTPCHJob draws a random query/size pair and instantiates it.
func RandomTPCHJob(rng *rand.Rand) *dag.Job {
	q, s := SampleTPCH(rng)
	return TPCHJob(q, s)
}

// MeanTPCHWork returns the mean total work (task-seconds) over the uniform
// (query, size) distribution; used to pick interarrival times for a target
// cluster load. It is computed once, over the template table, so
// IATForLoad costs nothing after its first call.
func MeanTPCHWork() float64 { return meanTPCHWork() }

var meanTPCHWork = sync.OnceValue(func() float64 {
	var sum float64
	for q := 1; q <= NumQueries; q++ {
		for i := range Sizes {
			sum += tpchTemplate(q, i).TotalWork()
		}
	}
	return sum / float64(NumQueries*len(Sizes))
})

// IATForLoad returns the Poisson mean interarrival time that produces the
// given cluster load on numExecutors executors, via
// load = meanWork / (IAT × numExecutors).
func IATForLoad(load float64, numExecutors int) float64 {
	return MeanTPCHWork() / (load * float64(numExecutors))
}
