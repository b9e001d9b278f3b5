package workload

import (
	"math/rand"
	"sort"

	"repro/internal/dag"
)

// Batch returns n random TPC-H jobs all arriving at time zero (the batched
// arrival setting of §7.2).
func Batch(rng *rand.Rand, n int) []*dag.Job {
	jobs := make([]*dag.Job, n)
	for i := range jobs {
		j := RandomTPCHJob(rng)
		j.ID = i
		j.Arrival = 0
		jobs[i] = j
	}
	return jobs
}

// Poisson returns n random TPC-H jobs with exponential interarrival times of
// the given mean (the continuous arrival setting of §7.2; the paper uses a
// 45-second mean at ~85% load on 50 executors).
func Poisson(rng *rand.Rand, n int, meanIAT float64) []*dag.Job {
	jobs := make([]*dag.Job, n)
	t := 0.0
	for i := range jobs {
		j := RandomTPCHJob(rng)
		j.ID = i
		t += rng.ExpFloat64() * meanIAT
		j.Arrival = t
		jobs[i] = j
	}
	return jobs
}

// WithArrivals stamps sequential IDs and the given arrival times onto clones
// of the jobs (sharing their DAGs), returning them sorted by arrival.
func WithArrivals(jobs []*dag.Job, arrivals []float64) []*dag.Job {
	if len(jobs) != len(arrivals) {
		panic("workload: arrivals length mismatch")
	}
	out := make([]*dag.Job, len(jobs))
	for i, j := range jobs {
		c := j.Clone()
		c.ID = i
		c.Arrival = arrivals[i]
		out[i] = c
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Arrival < out[b].Arrival })
	for i, j := range out {
		j.ID = i
	}
	return out
}

// CloneAll instances a job sequence so several simulations can consume the
// same arrival sequence independently (the input-dependent baseline of §5.3
// replays one sequence across many episodes). A simulation keeps its
// runtime state outside the dag.Job, so the clones share their DAGs and
// each costs one small struct.
func CloneAll(jobs []*dag.Job) []*dag.Job {
	out := make([]*dag.Job, len(jobs))
	for i, j := range jobs {
		out[i] = j.Clone()
	}
	return out
}
