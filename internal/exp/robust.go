package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The robustness matrix: every registry scheduler scored under every canned
// failure regime (internal/workload.Regimes) on one fixed continuous-arrival
// workload. Decima is trained once on the *clean* regime — the paper's
// training setup — and then evaluated, untouched, under churn, stragglers
// and task loss, so the matrix measures how gracefully a policy trained on
// a well-behaved cluster degrades when the cluster stops behaving.
//
// cmd/decima-bench exposes the matrix as `-failures <regimes>` and writes
// the machine-readable form (RobustDoc) to BENCH_robustness.json, which CI
// uploads next to the perf artifacts.

// RobustCell is one (scheduler, regime) outcome of the robustness matrix.
type RobustCell struct {
	Scheduler string `json:"scheduler"`
	Regime    string `json:"regime"`
	// AvgJCT averages over completed jobs only; abandoned jobs are counted
	// in FailedJobs instead.
	AvgJCT      float64 `json:"avg_jct_s"`
	Makespan    float64 `json:"makespan_s"`
	Completed   int     `json:"completed"`
	FailedJobs  int     `json:"failed_jobs"`
	Unfinished  int     `json:"unfinished"`
	Deadlock    bool    `json:"deadlock"`
	Retries     int     `json:"retries"`
	FailedTasks int     `json:"failed_tasks"`
	Stragglers  int     `json:"stragglers"`
	ChurnLeaves int     `json:"churn_leaves"`
	ChurnJoins  int     `json:"churn_joins"`
}

// RobustDoc is the machine-readable robustness artifact
// (BENCH_robustness.json).
type RobustDoc struct {
	Regimes    []string     `json:"regimes"`
	Schedulers []string     `json:"schedulers"`
	Executors  int          `json:"executors"`
	Jobs       int          `json:"jobs"`
	Seed       int64        `json:"seed"`
	Cells      []RobustCell `json:"cells"`
}

// Robust runs the robustness matrix and returns the printable table.
func Robust(sc Scale) *Table {
	t, _ := RobustMatrix(sc)
	return t
}

// RobustMatrix runs the robustness matrix and returns both the printable
// table and the machine-readable document.
//
// Scale.Failures restricts the regime set (empty = every canned regime);
// Scale.Schedulers restricts the policy set (empty = every registry
// scheduler). Unknown regime names panic, like unknown scheduler names: the
// flag parser in cmd/decima-bench validates both up front.
func RobustMatrix(sc Scale) (*Table, *RobustDoc) {
	regimes := sc.Failures
	if len(regimes) == 0 {
		regimes = workload.RegimeNames()
	}
	names := sc.schedulerNames(scheduler.Names()...)

	simCfg := sim.SparkDefaults(sc.Executors)
	jobs := workload.Poisson(rand.New(rand.NewSource(sc.Seed+500)), sc.ContinuousJobs,
		workload.IATForLoad(0.6, sc.Executors))

	// Build each policy once: Decima trains here, on the clean
	// configuration, and every cell gets a fresh runner of that agent, so
	// runs share no RNG or cache state and the trained parameters stay
	// clean-regime-only.
	mks := make([]func() sim.Scheduler, len(names))
	for i, name := range names {
		mks[i] = policy(sc, simCfg, name, smallJobSource(max(sc.BatchJobs, 1), 3))
	}

	t := &Table{
		Title: "Robustness matrix: schedulers × failure regimes",
		Header: []string{"scheduler", "regime", "avg_jct_s", "completed", "failed",
			"retries", "failed_tasks", "stragglers", "churn"},
	}
	doc := &RobustDoc{
		Regimes:    regimes,
		Schedulers: names,
		Executors:  sc.Executors,
		Jobs:       sc.ContinuousJobs,
		Seed:       sc.Seed,
	}
	for _, regime := range regimes {
		prof, err := workload.Regime(regime)
		if err != nil {
			panic(fmt.Sprintf("exp: %v", err))
		}
		cfg := prof.Apply(simCfg)
		for i, name := range names {
			res := runOne(mks[i], jobs, cfg, sc.Seed)
			cell := RobustCell{
				Scheduler:   name,
				Regime:      regime,
				AvgJCT:      res.AvgJCT(),
				Makespan:    res.Makespan,
				Completed:   len(res.Completed),
				FailedJobs:  res.FailedCount(),
				Unfinished:  res.Unfinished,
				Deadlock:    res.Deadlock,
				Retries:     res.Retries,
				FailedTasks: res.FailedTasks,
				Stragglers:  res.Stragglers,
				ChurnLeaves: res.ChurnLeaves,
				ChurnJoins:  res.ChurnJoins,
			}
			doc.Cells = append(doc.Cells, cell)
			t.Add(name, regime, cell.AvgJCT, cell.Completed, cell.FailedJobs,
				cell.Retries, cell.FailedTasks, cell.Stragglers,
				fmt.Sprintf("%d/%d", cell.ChurnLeaves, cell.ChurnJoins))
		}
	}
	return t, doc
}
