// Package exp is the experiment harness: one function per table and figure
// of the paper's evaluation (§7 and appendices). Each experiment returns a
// Table of the same rows/series the paper reports, so cmd/decima-bench and
// the repository-level benchmarks can regenerate every artifact.
//
// Experiments are parameterised by a Scale so the same code runs as a
// seconds-long benchmark (ScaleTiny), a minutes-long smoke reproduction
// (ScaleSmall), or a faithful-size run (ScalePaper). Absolute numbers
// depend on the scale; the comparisons' shape is what reproduces the paper
// (see EXPERIMENTS.md).
package exp

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/metrics"
	"repro/internal/rl"
	"repro/internal/sched"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Table is a printable experiment result.
type Table struct {
	// Title names the paper artifact, e.g. "Figure 9a".
	Title string
	// Header labels the columns.
	Header []string
	// Rows holds the data as formatted strings.
	Rows [][]string
}

// Add appends a row, formatting each value with %v (floats as %.4g).
func (t *Table) Add(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		default:
			row[i] = fmt.Sprintf("%v", x)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// Scale sizes an experiment run.
type Scale struct {
	// Executors is the cluster size for single-resource experiments.
	Executors int
	// BatchJobs is the batch size for batched-arrival experiments.
	BatchJobs int
	// ContinuousJobs is the job count for continuous-arrival experiments.
	ContinuousJobs int
	// Runs is the number of repetitions (the CDF sample count of Fig. 9a).
	Runs int
	// TrainIters is the training length for Decima agents.
	TrainIters int
	// EpisodesPerIter is the rollout count per training iteration.
	EpisodesPerIter int
	// Workers is the rollout worker pool size for Decima training; ≤ 0
	// selects one worker per CPU. Results are identical for any value
	// (the parallel engine is bit-deterministic), so this only controls
	// wall-clock time.
	Workers int
	// Seed makes the whole experiment deterministic.
	Seed int64
	// Schedulers optionally overrides which policies a comparison figure
	// runs, by internal/scheduler registry name ("decima" included). Empty
	// keeps the figure's default set. cmd/decima-bench -scheduler sets it,
	// so any figure can run any registered policy (or a subset, e.g. to
	// skip Decima training). Figures that compare agent ablations rather
	// than policies ignore it.
	Schedulers []string
	// Failures restricts the robustness matrix (the "robust" experiment) to
	// a subset of the canned failure regimes, by internal/workload regime
	// name. Empty runs every regime. cmd/decima-bench -failures sets it;
	// other experiments ignore it.
	Failures []string
}

// schedulerNames resolves a figure's comparison set: the explicit
// Scale.Schedulers selection when present, the figure's defaults otherwise.
func (sc Scale) schedulerNames(defaults ...string) []string {
	if len(sc.Schedulers) > 0 {
		return sc.Schedulers
	}
	return defaults
}

// ScaleTiny finishes in seconds; used by the repository benchmarks.
var ScaleTiny = Scale{
	Executors: 6, BatchJobs: 6, ContinuousJobs: 12, Runs: 3,
	TrainIters: 8, EpisodesPerIter: 2, Seed: 1,
}

// ScaleSmall is a minutes-long smoke reproduction.
var ScaleSmall = Scale{
	Executors: 10, BatchJobs: 12, ContinuousJobs: 60, Runs: 10,
	TrainIters: 150, EpisodesPerIter: 6, Seed: 1,
}

// ScalePaper approaches the paper's sizes (hours of single-core compute).
var ScalePaper = Scale{
	Executors: 50, BatchJobs: 20, ContinuousJobs: 1000, Runs: 100,
	TrainIters: 3000, EpisodesPerIter: 16, Seed: 1,
}

// smallJobSource draws batches of modest TPC-H jobs for fast training.
func smallJobSource(n int, maxSizeIdx int) rl.JobSource {
	return func(rng *rand.Rand) []*dag.Job {
		jobs := make([]*dag.Job, n)
		for i := range jobs {
			q := 1 + rng.Intn(workload.NumQueries)
			jobs[i] = workload.TPCHJob(q, workload.Sizes[rng.Intn(maxSizeIdx)])
			jobs[i].ID = i
		}
		return jobs
	}
}

// trainAgent builds and trains a Decima agent at the given scale and returns
// it greedy: every figure scores Decima by argmax.
func trainAgent(sc Scale, simCfg sim.Config, src rl.JobSource, mod func(*core.Config), rlMod func(*rl.Config)) *core.Agent {
	agent, tr := newTrainer(sc, simCfg, mod, rlMod)
	tr.Train(sc.TrainIters, src, simCfg, nil)
	agent.Greedy = true
	return agent
}

// newTrainer builds an untrained Decima agent and the trainer every figure
// trains it with; mod and rlMod, when non-nil, adjust the two configs.
func newTrainer(sc Scale, simCfg sim.Config, mod func(*core.Config), rlMod func(*rl.Config)) (*core.Agent, *rl.Trainer) {
	acfg := core.DefaultConfig(sc.Executors)
	for _, c := range simCfg.Classes {
		acfg.ClassMem = append(acfg.ClassMem, c.Mem)
	}
	if mod != nil {
		mod(&acfg)
	}
	agent := core.New(acfg, rand.New(rand.NewSource(sc.Seed)))
	tcfg := rl.DefaultConfig()
	tcfg.EpisodesPerIter = sc.EpisodesPerIter
	tcfg.Workers = sc.Workers
	if rlMod != nil {
		rlMod(&tcfg)
	}
	return agent, rl.NewTrainer(agent, tcfg, rand.New(rand.NewSource(sc.Seed+1)))
}

// policy returns the fresh-instance factory of one comparison row: the
// internal/scheduler registry policy of that name, where "decima" serves
// runners of an agent trainAgent trains here on src (other names ignore
// src). An unknown name is a caller bug, so it panics rather than silently
// degrading a figure.
func policy(sc Scale, simCfg sim.Config, name string, src rl.JobSource) func() sim.Scheduler {
	opts := scheduler.Options{Seed: sc.Seed, Classes: simCfg.Classes}
	if name == "decima" {
		opts.Agent = trainAgent(sc, simCfg, src, nil, nil)
	}
	return func() sim.Scheduler {
		s, err := scheduler.New(name, opts)
		if err != nil {
			panic(fmt.Sprintf("exp: %v", err))
		}
		return scheduler.Sim(s)
	}
}

// runOne is rl.Runs on a single job sequence.
func runOne(mk func() sim.Scheduler, jobs []*dag.Job, simCfg sim.Config, seed int64) *sim.Result {
	return rl.Runs(mk, [][]*dag.Job{jobs}, simCfg, seed)[0]
}

// tuneWeightedFair sweeps α over the paper's grid on held-out sequences and
// returns the best exponent (§7.1 baseline 5). The sweep constructs
// sched.NewWeightedFair directly — it tunes a parameter, it does not select
// a policy, so the registry (whose "opt-wfair" maps α = 0 to the tuned
// default) is the wrong tool here.
func tuneWeightedFair(seqs [][]*dag.Job, simCfg sim.Config, seed int64) float64 {
	bestAlpha, bestJCT := 0.0, -1.0
	for a := -20; a <= 20; a++ {
		alpha := float64(a) / 10
		jct, _ := rl.EvaluateScheduler(func() sim.Scheduler { return sched.NewWeightedFair(alpha) }, seqs, simCfg, seed)
		if bestJCT < 0 || jct < bestJCT {
			bestJCT, bestAlpha = jct, alpha
		}
	}
	return bestAlpha
}

// evalSeqs builds r deterministic evaluation sequences of n batched jobs.
func evalSeqs(r, n int, seed int64) [][]*dag.Job {
	out := make([][]*dag.Job, r)
	for i := range out {
		out[i] = workload.Batch(rand.New(rand.NewSource(seed+int64(i))), n)
	}
	return out
}

// peakJobs is the most jobs a run ever held in the system at once.
func peakJobs(r *sim.Result) float64 {
	var p float64
	for _, pt := range metrics.ConcurrentJobs(r.Completed) {
		p = max(p, pt.Value)
	}
	return p
}

// executorsHeld is the mean number of executors a job held over its
// lifetime.
func executorsHeld(rec sim.JobRecord) float64 {
	var s float64
	for _, v := range rec.ExecutorSeconds {
		s += v
	}
	return s / rec.JCT()
}

// perJob evaluates f on every record.
func perJob(recs []sim.JobRecord, f func(sim.JobRecord) float64) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = f(r)
	}
	return out
}

// workQuintiles groups vals, one per record of recs, into five
// equal-population bins by the jobs' total work.
func workQuintiles(recs []sim.JobRecord, vals []float64) []metrics.Bin {
	return metrics.GroupByQuantiles(perJob(recs, func(r sim.JobRecord) float64 { return r.TotalWork }), vals, 5)
}

// lightest is the mean of the lightest-work bin, 0 when there is none.
func lightest(bins []metrics.Bin) float64 {
	if len(bins) == 0 {
		return 0
	}
	return bins[0].Mean
}
