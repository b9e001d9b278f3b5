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

// wantsScheduler reports whether name is in the figure's resolved set.
func (sc Scale) wantsScheduler(defaults []string, name string) bool {
	for _, n := range sc.schedulerNames(defaults...) {
		if n == name {
			return true
		}
	}
	return false
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

// trainAgent builds and trains a Decima agent at the given scale.
func trainAgent(sc Scale, simCfg sim.Config, src rl.JobSource, mod func(*core.Config), rlMod func(*rl.Config)) *core.Agent {
	agent, tr := newTrainer(sc, simCfg, mod, rlMod)
	tr.Train(sc.TrainIters, src, simCfg, nil)
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
	tcfg.LR = 3e-3
	tcfg.EntropyWeight = 0.2
	tcfg.EntropyDecay = 0.999
	tcfg.InitialHorizon = 200
	tcfg.HorizonGrowth = 30
	tcfg.MaxHorizon = 10000
	if rlMod != nil {
		rlMod(&tcfg)
	}
	return agent, rl.NewTrainer(agent, tcfg, rand.New(rand.NewSource(sc.Seed+1)))
}

// mkNamed returns a fresh-instance factory for one registry scheduler.
// Registry names are validated at first use; an unknown name is a caller
// bug, so it panics rather than silently degrading a figure.
func mkNamed(name string, opts scheduler.Options) func() sim.Scheduler {
	return func() sim.Scheduler {
		s, err := scheduler.New(name, opts)
		if err != nil {
			panic(fmt.Sprintf("exp: %v", err))
		}
		return scheduler.Sim(s)
	}
}

// baselines returns the single-resource baseline schedulers of §7.1 keyed
// by their paper names — which are their internal/scheduler registry names
// — each as a fresh-instance factory.
func baselines() map[string]func() sim.Scheduler {
	m := make(map[string]func() sim.Scheduler, len(baselineOrder))
	for _, name := range baselineOrder {
		m[name] = mkNamed(name, scheduler.Options{})
	}
	return m
}

// baselineOrder fixes a stable presentation order.
var baselineOrder = []string{"fifo", "sjf-cp", "fair", "naive-wfair", "opt-wfair", "tetris", "graphene-star"}

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

// multiResClasses is the §7.3 executor-class layout: four classes with
// (0.25, 0.5, 0.75, 1.0) normalized memory, equal counts.
func multiResClasses(perClass int) []sim.ExecutorClass {
	return []sim.ExecutorClass{
		{Mem: 0.25, Count: perClass},
		{Mem: 0.5, Count: perClass},
		{Mem: 0.75, Count: perClass},
		{Mem: 1.0, Count: perClass},
	}
}

// simDefaultsForTest exposes a standard config for package tests.
func simDefaultsForTest() sim.Config { return sim.SparkDefaults(6) }
