package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/dag"
	"repro/internal/metrics"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/workload"
)

// multiResSimCfg builds the §7.3 environment at the given scale: four
// executor classes with (0.25, 0.5, 0.75, 1.0) normalized memory, equal
// counts.
func multiResSimCfg(sc Scale) sim.Config {
	n := max(sc.Executors/4, 1)
	cfg := sim.SparkDefaults(0)
	cfg.Classes = []sim.ExecutorClass{{Mem: 0.25, Count: n}, {Mem: 0.5, Count: n}, {Mem: 0.75, Count: n}, {Mem: 1.0, Count: n}}
	return cfg
}

// traceSource adapts the synthetic industrial trace into a training source.
func traceSource(n int) rl.JobSource {
	return func(rng *rand.Rand) []*dag.Job {
		cfg := workload.IndustrialTraceConfig{NumJobs: n, MeanIAT: 0, MaxStages: 20}
		jobs := workload.IndustrialTrace(rng, cfg)
		for _, j := range jobs {
			j.Arrival = 0
		}
		return jobs
	}
}

// runMultiRes executes the Fig. 11 comparison on the given workload.
func runMultiRes(sc Scale, title string, jobs []*dag.Job, src rl.JobSource) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"scheduler", "avg_jct_s", "unfinished"},
	}
	simCfg := multiResSimCfg(sc)
	for _, name := range sc.schedulerNames("opt-wfair", "tetris", "graphene-star", "decima") {
		res := runOne(policy(sc, simCfg, name, src), jobs, simCfg, sc.Seed)
		t.Add(name, res.AvgJCT(), res.Unfinished)
	}
	return t
}

// Fig11a reproduces Figure 11a: multi-resource scheduling on the
// (synthetic) industrial trace replay.
func Fig11a(sc Scale) *Table {
	jobs := workload.IndustrialTrace(
		rand.New(rand.NewSource(sc.Seed+500)),
		workload.IndustrialTraceConfig{NumJobs: sc.ContinuousJobs, MeanIAT: 20, MaxStages: 30},
	)
	return runMultiRes(sc, "Figure 11a: multi-resource, industrial trace replay", jobs, traceSource(sc.BatchJobs))
}

// Fig11b reproduces Figure 11b: multi-resource scheduling on the TPC-H
// workload with per-stage memory requests drawn from (0, 1].
func Fig11b(sc Scale) *Table {
	jobs := workload.Poisson(
		rand.New(rand.NewSource(sc.Seed+600)),
		sc.ContinuousJobs,
		workload.IATForLoad(0.75, sc.Executors),
	)
	return runMultiRes(sc, "Figure 11b: multi-resource, TPC-H workload", jobs, smallJobSource(sc.BatchJobs, 3))
}

// versusGraphene runs Graphene* and Decima on one multi-resource Poisson
// workload (drawn from seed jobSeed at the given load): the setup Figs. 12,
// 20 and 21 share.
func versusGraphene(sc Scale, jobSeed int64, load float64) (g, d *sim.Result) {
	simCfg := multiResSimCfg(sc)
	jobs := workload.Poisson(rand.New(rand.NewSource(jobSeed)), sc.ContinuousJobs, workload.IATForLoad(load, sc.Executors))
	src := smallJobSource(sc.BatchJobs, 3)
	return runOne(policy(sc, simCfg, "graphene-star", src), jobs, simCfg, sc.Seed),
		runOne(policy(sc, simCfg, "decima", src), jobs, simCfg, sc.Seed)
}

// classSeconds returns a job's executor-seconds on executor class c.
func classSeconds(c int) func(sim.JobRecord) float64 {
	return func(r sim.JobRecord) float64 { return r.ExecutorSeconds[c] }
}

// Fig12 reproduces Figure 12: Decima's multi-resource gains broken down by
// job size (12a: JCT normalized to Graphene*) and its use of oversized
// executors on small jobs (12b: largest-class executor seconds on the
// smallest-20% jobs, normalized to Graphene*).
func Fig12(sc Scale) *Table {
	t := &Table{
		Title:  "Figure 12: Decima vs Graphene* by job size (multi-resource)",
		Header: []string{"metric", "value"},
	}
	g, d := versusGraphene(sc, sc.Seed+700, 0.7)

	// 12a: normalized JCT by total-work quintile.
	paired, ratios := metrics.PairedRatio(d.Completed, g.Completed, sim.JobRecord.JCT)
	for i, b := range workQuintiles(paired, ratios) {
		t.Add(fmt.Sprintf("12a: JCT ratio decima/graphene, work quintile %d", i+1), b.Mean)
	}

	// 12b: largest-class executor use on the smallest-20% jobs.
	largestUse := func(r *sim.Result) float64 {
		return lightest(workQuintiles(r.Completed, perJob(r.Completed, classSeconds(3))))
	}
	if gu, du := largestUse(g), largestUse(d); gu > 0 {
		t.Add("12b: largest-class exec-seconds on small jobs, decima/graphene", du/gu)
	} else {
		t.Add("12b: largest-class exec-seconds on small jobs (graphene=0), decima", du)
	}
	return t
}

// Fig20 reproduces the Appendix G time-series: concurrent jobs and
// executors per job over a busy multi-resource run, Decima vs Graphene*.
func Fig20(sc Scale) *Table {
	t := &Table{
		Title:  "Figure 20: multi-resource time-series (Appendix G)",
		Header: []string{"metric", "graphene-star", "decima"},
	}
	g, d := versusGraphene(sc, sc.Seed+800, 0.8)
	meanExec := func(r *sim.Result) float64 { return metrics.Mean(perJob(r.Completed, executorsHeld)) }
	t.Add("peak concurrent jobs (20-1)", peakJobs(g), peakJobs(d))
	t.Add("mean executors per job (20-2)", meanExec(g), meanExec(d))
	t.Add("avg JCT (20-3)", g.AvgJCT(), d.AvgJCT())
	return t
}

// Fig21 reproduces the Appendix G executor-assignment profile: Decima's
// executor-seconds per class and per job-size quintile, normalized to
// Graphene*.
func Fig21(sc Scale) *Table {
	t := &Table{
		Title:  "Figure 21: executor assignment profile, decima/graphene-star",
		Header: []string{"work_quintile", "class_0.25", "class_0.5", "class_0.75", "class_1.0"},
	}
	g, d := versusGraphene(sc, sc.Seed+900, 0.7)
	var gp, dp [4][]metrics.Bin
	for c := range gp {
		gp[c] = workQuintiles(g.Completed, perJob(g.Completed, classSeconds(c)))
		dp[c] = workQuintiles(d.Completed, perJob(d.Completed, classSeconds(c)))
	}
	for q := 0; q < 5; q++ {
		row := []any{q + 1}
		for c := range gp {
			if q < len(gp[c]) && q < len(dp[c]) && gp[c][q].Mean > 0 {
				row = append(row, dp[c][q].Mean/gp[c][q].Mean)
			} else {
				row = append(row, "n/a")
			}
		}
		t.Add(row...)
	}
	return t
}
