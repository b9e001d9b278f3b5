package exp

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/dag"
	"repro/internal/metrics"
	"repro/internal/rl"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig2 reproduces Figure 2: single-job runtime versus degree of
// parallelism for TPC-H Q2 and Q9 at different input sizes. The shape to
// reproduce: Q9@100GB keeps speeding up to ~40 parallel tasks, Q2@100GB
// flattens near 20, Q9@2GB needs only a handful.
func Fig2(sc Scale) *Table {
	t := &Table{
		Title:  "Figure 2: job runtime vs degree of parallelism",
		Header: []string{"query", "size_gb", "parallelism", "runtime_s"},
	}
	cases := []struct {
		q    int
		size float64
	}{{9, 2}, {9, 100}, {2, 100}}
	for _, c := range cases {
		for _, p := range []int{1, 2, 5, 10, 20, 30, 40, 60, 80, 100} {
			t.Add(fmt.Sprintf("Q%d", c.q), c.size, p, Fig2Runtime(c.q, c.size, p, sc.Seed))
		}
	}
	return t
}

// Fig2Runtime exposes the runtime for one (query, size, parallelism) point
// so tests can assert the sweet-spot shape directly.
func Fig2Runtime(q int, sizeGB float64, parallelism int, seed int64) float64 {
	cfg := sim.SparkDefaults(parallelism)
	cfg.DurationNoise = 0
	fifo := policy(Scale{Seed: seed}, cfg, "fifo", nil)
	return runOne(fifo, []*dag.Job{workload.TPCHJob(q, sizeGB)}, cfg, seed).Completed[0].JCT()
}

// Fig3 reproduces Figure 3: the illustrative 10-job, 50-slot comparison of
// FIFO, SJF, fair and Decima scheduling. The paper's shape: Decima < fair <
// SJF < FIFO on average JCT. Scale.Schedulers swaps in any registered
// policy set.
func Fig3(sc Scale) *Table {
	t := &Table{
		Title:  "Figure 3: 10 random TPC-H jobs on 50 task slots",
		Header: []string{"scheduler", "avg_jct_s", "makespan_s"},
	}
	execs := sc.Executors
	jobs := workload.Batch(rand.New(rand.NewSource(sc.Seed+7)), 10)
	seqs := [][]*dag.Job{jobs}
	simCfg := sim.SparkDefaults(execs)

	for _, name := range sc.schedulerNames("fifo", "sjf-cp", "fair", "decima") {
		jct, ms := rl.EvaluateScheduler(policy(sc, simCfg, name, smallJobSource(10, 3)), seqs, simCfg, sc.Seed)
		t.Add(name, jct, ms)
	}
	return t
}

// Fig9a reproduces Figure 9a: the distribution of average JCT over
// repeated batched-arrival experiments for all seven baselines plus Decima.
func Fig9a(sc Scale) *Table {
	t := &Table{
		Title:  "Figure 9a: batched arrivals, avg JCT over experiments",
		Header: []string{"scheduler", "mean_avg_jct_s", "p25", "p50", "p75"},
	}
	simCfg := sim.SparkDefaults(sc.Executors)
	seqs := evalSeqs(sc.Runs, sc.BatchJobs, sc.Seed+100)

	for _, name := range sc.schedulerNames("fifo", "sjf-cp", "fair", "naive-wfair", "opt-wfair", "tetris", "graphene-star", "decima") {
		mk := policy(sc, simCfg, name, smallJobSource(sc.BatchJobs, 3))
		if name == "opt-wfair" { // §7.1 baseline 5: α tuned on held-out sequences
			alpha := tuneWeightedFair(seqs[:min(3, len(seqs))], simCfg, sc.Seed)
			mk = func() sim.Scheduler { return sched.NewWeightedFair(alpha) }
		}
		var js []float64
		for _, res := range rl.Runs(mk, seqs, simCfg, sc.Seed) {
			js = append(js, res.AvgJCT())
		}
		t.Add(name, metrics.Mean(js), metrics.Percentile(js, 25), metrics.Percentile(js, 50), metrics.Percentile(js, 75))
	}
	return t
}

// Fig9b reproduces Figure 9b: continuous Poisson arrivals at high load,
// comparing Decima against the tuned weighted-fair heuristic (the only
// baseline that keeps up at 85% load in the paper).
func Fig9b(sc Scale) *Table {
	t := &Table{
		Title:  "Figure 9b: continuous arrivals (≈85% load)",
		Header: []string{"scheduler", "avg_jct_s", "completed", "unfinished"},
	}
	simCfg := sim.SparkDefaults(sc.Executors)
	iat := workload.IATForLoad(0.85, sc.Executors)
	jobs := workload.Poisson(rand.New(rand.NewSource(sc.Seed+200)), sc.ContinuousJobs, iat)

	for _, name := range sc.schedulerNames("fair", "opt-wfair", "decima") {
		res := runOne(policy(sc, simCfg, name, smallJobSource(sc.BatchJobs, 3)), jobs, simCfg, sc.Seed)
		t.Add(name, res.AvgJCT(), len(res.Completed), res.Unfinished)
	}
	return t
}

// Fig10 reproduces the Figure 10 time-series analysis of a continuous run:
// peak concurrent jobs, JCT by job size, executor shares for small jobs,
// and work inflation, Decima versus the tuned weighted-fair heuristic.
func Fig10(sc Scale) *Table {
	// The figure contrasts Decima against one reference heuristic; a
	// Scale.Schedulers selection swaps the heuristic column for any
	// registered policy, and leaving "decima" out of the selection drops
	// that column (and its training cost) entirely.
	cols := []string{"opt-wfair"}
	for _, n := range sc.Schedulers {
		if n != "decima" {
			cols[0] = n
			break
		}
	}
	if slices.Contains(sc.schedulerNames("opt-wfair", "decima"), "decima") {
		cols = append(cols, "decima")
	}
	t := &Table{
		Title:  "Figure 10: time-series analysis of continuous arrivals",
		Header: append([]string{"metric"}, cols...),
	}
	simCfg := sim.SparkDefaults(sc.Executors)
	iat := workload.IATForLoad(0.8, sc.Executors)
	jobs := workload.Poisson(rand.New(rand.NewSource(sc.Seed+300)), sc.ContinuousJobs, iat)
	var runs []*sim.Result
	for _, name := range cols {
		runs = append(runs, runOne(policy(sc, simCfg, name, smallJobSource(sc.BatchJobs, 3)), jobs, simCfg, sc.Seed))
	}
	add := func(metric string, f func(*sim.Result) float64) {
		row := []any{metric}
		for _, r := range runs {
			row = append(row, f(r))
		}
		t.Add(row...)
	}

	add("peak concurrent jobs (10a)", peakJobs)
	add("avg JCT (10b)", (*sim.Result).AvgJCT)
	add("small-job (lowest quintile) JCT (10c)", func(r *sim.Result) float64 {
		return lightest(workQuintiles(r.Completed, metrics.JCTs(r.Completed)))
	})
	add("small-job mean executors (10d)", func(r *sim.Result) float64 {
		return lightest(workQuintiles(r.Completed, perJob(r.Completed, executorsHeld)))
	})
	add("work inflation executed/ideal (10e)", func(r *sim.Result) float64 {
		var ratios []float64
		for _, rec := range r.Completed {
			if rec.TotalWork > 0 {
				ratios = append(ratios, rec.WorkExecuted/rec.TotalWork)
			}
		}
		return metrics.Mean(ratios)
	})
	return t
}

// Fig15b reproduces Figure 15b: the distribution of Decima's scheduling
// delay versus the interval between scheduling events, measured in
// wall-clock time around agent invocations.
func Fig15b(sc Scale) *Table {
	t := &Table{
		Title:  "Figure 15b: scheduling delay vs event interval",
		Header: []string{"metric", "p50_ms", "p95_ms", "mean_ms"},
	}
	simCfg := sim.SparkDefaults(sc.Executors)
	agent := trainAgent(Scale{Executors: sc.Executors, TrainIters: 0, EpisodesPerIter: 1, Seed: sc.Seed}, simCfg, smallJobSource(sc.BatchJobs, 3), nil, nil)

	var delays, intervals []float64
	timed := &timedScheduler{inner: agent, delays: &delays, intervals: &intervals}
	jobs := workload.Poisson(rand.New(rand.NewSource(sc.Seed+400)), sc.ContinuousJobs, workload.IATForLoad(0.7, sc.Executors))
	runOne(func() sim.Scheduler { return timed }, jobs, simCfg, sc.Seed)

	t.Add("scheduling delay", metrics.Percentile(delays, 50), metrics.Percentile(delays, 95), metrics.Mean(delays))
	t.Add("sim event interval (ms of sim-time)", metrics.Percentile(intervals, 50), metrics.Percentile(intervals, 95), metrics.Mean(intervals))
	return t
}
