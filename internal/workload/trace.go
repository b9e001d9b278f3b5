package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dag"
)

// IndustrialTraceConfig parameterises the synthetic industrial trace that
// substitutes for the Alibaba production trace (§7.3). Defaults reproduce
// the statistics the paper reports: ~20,000 jobs, 59% with four or more
// stages, some with hundreds, heavy-tailed work, and per-stage CPU and
// memory requests.
type IndustrialTraceConfig struct {
	// NumJobs is the number of jobs to generate.
	NumJobs int
	// MeanIAT is the mean interarrival time in seconds.
	MeanIAT float64
	// MaxStages caps the per-job stage count (the trace has jobs with
	// hundreds of stages).
	MaxStages int
}

// DefaultIndustrialTraceConfig returns the configuration matching the
// paper's trace statistics, scaled by numJobs.
func DefaultIndustrialTraceConfig(numJobs int) IndustrialTraceConfig {
	return IndustrialTraceConfig{NumJobs: numJobs, MeanIAT: 30, MaxStages: 200}
}

// sampleStageCount draws a job's stage count with 59% of mass at ≥4 stages
// and a Pareto tail reaching MaxStages.
func sampleStageCount(rng *rand.Rand, maxStages int) int {
	if rng.Float64() < 0.41 {
		return 1 + rng.Intn(3) // 1..3 stages
	}
	// Pareto tail starting at 4: n = 4 / U^(1/alpha), alpha ≈ 1.5.
	n := int(4 / math.Pow(rng.Float64(), 1/1.5))
	if n < 4 {
		n = 4
	}
	if n > maxStages {
		n = maxStages
	}
	return n
}

// IndustrialTrace synthesises a trace of jobs with complex DAGs and
// multi-resource (CPU, memory) stage requirements.
func IndustrialTrace(rng *rand.Rand, cfg IndustrialTraceConfig) []*dag.Job {
	jobs := make([]*dag.Job, cfg.NumJobs)
	t := 0.0
	for i := range jobs {
		n := sampleStageCount(rng, cfg.MaxStages)
		job := &dag.Job{ID: i, Name: fmt.Sprintf("trace-%d", i)}
		// Per-job work is heavy-tailed (lognormal).
		jobWork := math.Exp(rng.NormFloat64()*1.2 + 5.5) // median ≈ 245 task-s
		for s := 0; s < n; s++ {
			frac := (0.2 + rng.Float64()) / float64(n)
			stageWork := jobWork * frac * float64(n) / 1.2
			tasks := 1 + rng.Intn(40)
			job.Stages = append(job.Stages, &dag.Stage{
				ID:           s,
				NumTasks:     tasks,
				TaskDuration: stageWork / float64(tasks),
				MemReq:       0.05 + rng.Float64()*0.95,
				CPUReq:       1,
			})
		}
		// Layered random DAG: each non-root stage depends on 1–3 earlier ones.
		for s := 1; s < n; s++ {
			deg := 1 + rng.Intn(3)
			seen := map[int]bool{}
			for d := 0; d < deg; d++ {
				p := rng.Intn(s)
				if !seen[p] {
					seen[p] = true
					job.AddEdge(p, s)
				}
			}
		}
		t += rng.ExpFloat64() * cfg.MeanIAT
		job.Arrival = t
		if err := job.Validate(); err != nil {
			panic(fmt.Sprintf("workload: generated trace job invalid: %v", err))
		}
		jobs[i] = job
	}
	return jobs
}
