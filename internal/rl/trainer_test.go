package rl

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/sim"
	"repro/internal/workload"
)

// smallSource yields a fixed-size batch of small random TPC-H jobs.
func smallSource(n int) JobSource {
	return func(rng *rand.Rand) []*dag.Job {
		jobs := make([]*dag.Job, n)
		for i := range jobs {
			q := 1 + rng.Intn(workload.NumQueries)
			jobs[i] = workload.TPCHJob(q, workload.Sizes[rng.Intn(2)]) // 2 or 5 GB
			jobs[i].ID = i
		}
		return jobs
	}
}

func smallAgent(seed int64) *core.Agent {
	cfg := core.DefaultConfig(5)
	cfg.EmbedDim = 4
	cfg.Hidden = []int{8}
	return core.New(cfg, rand.New(rand.NewSource(seed)))
}

func quickCfg() Config {
	c := DefaultConfig()
	c.EpisodesPerIter = 2
	c.MaxHorizon = 2000
	return c
}

func TestIterationRunsAndReportsStats(t *testing.T) {
	agent := smallAgent(1)
	tr := NewTrainer(agent, quickCfg(), rand.New(rand.NewSource(2)))
	st := tr.Iteration(smallSource(3), sim.Idealized(5))
	if st.Iter != 1 {
		t.Fatalf("iter = %d", st.Iter)
	}
	if st.MeanSteps <= 0 {
		t.Fatal("no decisions recorded")
	}
	if st.MeanReturn > 0 {
		t.Fatalf("positive return %v from a penalty objective", st.MeanReturn)
	}
	if math.IsNaN(st.GradNorm) || st.GradNorm == 0 {
		t.Fatalf("grad norm = %v", st.GradNorm)
	}
}

func TestCurriculumGrowsHorizon(t *testing.T) {
	agent := smallAgent(3)
	tr := NewTrainer(agent, quickCfg(), rand.New(rand.NewSource(4)))
	var h []float64
	for i := 0; i < 3; i++ {
		st := tr.Iteration(smallSource(2), sim.Idealized(5))
		h = append(h, st.Horizon)
	}
	if !(h[0] < h[1] && h[1] < h[2]) {
		t.Fatalf("horizon not growing: %v", h)
	}
}

func TestNoCurriculumFixedHorizon(t *testing.T) {
	cfg := quickCfg()
	cfg.NoCurriculum = true
	agent := smallAgent(5)
	tr := NewTrainer(agent, cfg, rand.New(rand.NewSource(6)))
	a := tr.Iteration(smallSource(2), sim.Idealized(5))
	b := tr.Iteration(smallSource(2), sim.Idealized(5))
	if a.Horizon != cfg.MaxHorizon || b.Horizon != cfg.MaxHorizon {
		t.Fatalf("horizons %v %v, want fixed %v", a.Horizon, b.Horizon, cfg.MaxHorizon)
	}
}

func TestParamsChangeAfterIteration(t *testing.T) {
	agent := smallAgent(7)
	before := make([]float64, 0)
	for _, p := range agent.Params() {
		before = append(before, p.Data...)
	}
	tr := NewTrainer(agent, quickCfg(), rand.New(rand.NewSource(8)))
	tr.Iteration(smallSource(2), sim.Idealized(5))
	changed := false
	i := 0
	for _, p := range agent.Params() {
		for _, v := range p.Data {
			if v != before[i] {
				changed = true
			}
			i++
		}
	}
	if !changed {
		t.Fatal("parameters unchanged after a training iteration")
	}
}

// TestTrainingImproves is the key end-to-end check: on a pure job-ordering
// environment (single-stage jobs with a large size spread, two executors,
// where SJF is optimal and random ordering is ~60% worse), REINFORCE must
// drive the on-policy JCT down towards the optimum.
func TestTrainingImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("120-iteration training run; skipped in -short mode")
	}
	src := func(rng *rand.Rand) []*dag.Job {
		sizes := []int{2, 4, 8, 16, 32, 64}
		rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
		jobs := make([]*dag.Job, len(sizes))
		for i, n := range sizes {
			jobs[i] = &dag.Job{ID: i, Stages: []*dag.Stage{{ID: 0, NumTasks: n, TaskDuration: 1, CPUReq: 1}}}
		}
		return jobs
	}
	simCfg := sim.Idealized(2)

	acfg := core.DefaultConfig(2)
	acfg.EmbedDim = 8
	acfg.Hidden = []int{16}
	agent := core.New(acfg, rand.New(rand.NewSource(9)))

	cfg := DefaultConfig()
	cfg.EpisodesPerIter = 8
	cfg.MaxHorizon = 1000
	tr := NewTrainer(agent, cfg, rand.New(rand.NewSource(10)))

	mean := func(stats []IterStats) float64 {
		var s float64
		var n int
		for _, st := range stats {
			if st.MeanJCT > 0 {
				s += st.MeanJCT
				n++
			}
		}
		return s / float64(n)
	}
	stats := tr.Train(120, src, simCfg, nil)
	early := mean(stats[10:30]) // skip warm-up where horizons are tiny
	late := mean(stats[100:])
	// SJF optimum on this workload is 20.0; random ordering ≈ 32.
	if late >= early {
		t.Fatalf("training did not improve on-policy JCT: early=%.1f late=%.1f", early, late)
	}
	if late > 24 {
		t.Fatalf("trained JCT = %.1f, want near the SJF optimum of 20", late)
	}
}

func TestEvaluateRestoresAgentState(t *testing.T) {
	agent := smallAgent(11)
	seqs := [][]*dag.Job{smallSource(2)(rand.New(rand.NewSource(1)))}
	for _, greedy := range []bool{false, true} {
		agent.Greedy = greedy
		Evaluate(agent, seqs, sim.Idealized(5), 1)
		if agent.Greedy != greedy {
			t.Fatalf("Evaluate left Greedy = %v, was %v", agent.Greedy, greedy)
		}
	}
}

func TestEvaluateSchedulerMatchesDirectRun(t *testing.T) {
	src := smallSource(3)
	jobs := src(rand.New(rand.NewSource(42)))
	simCfg := sim.Idealized(5)
	jct, ms := EvaluateScheduler(func() sim.Scheduler { return simFIFO() }, [][]*dag.Job{jobs}, simCfg, 7)
	res := sim.New(simCfg, workload.CloneAll(jobs), simFIFO(), rand.New(rand.NewSource(7))).Run()
	if math.Abs(jct-res.AvgJCT()) > 1e-9 || math.Abs(ms-res.Makespan) > 1e-9 {
		t.Fatalf("EvaluateScheduler mismatch: %v/%v vs %v/%v", jct, ms, res.AvgJCT(), res.Makespan)
	}
}

// simFIFO is a minimal FIFO used to avoid importing sched (cycle-free).
func simFIFO() sim.Scheduler {
	return sim.SchedulerFunc(func(s *sim.State) *sim.Action {
		for _, j := range s.Jobs {
			for _, st := range j.Stages {
				if st.Runnable() && s.FreeCount(st) > 0 {
					return &sim.Action{Stage: st, Limit: s.TotalExecutors, Class: -1}
				}
			}
		}
		return nil
	})
}

func TestUnfixedSequencesRun(t *testing.T) {
	cfg := quickCfg()
	cfg.UnfixedSequences = true
	agent := smallAgent(12)
	tr := NewTrainer(agent, cfg, rand.New(rand.NewSource(13)))
	st := tr.Iteration(smallSource(2), sim.Idealized(5))
	if st.MeanSteps <= 0 {
		t.Fatal("no steps with unfixed sequences")
	}
}

func TestMakespanObjective(t *testing.T) {
	cfg := quickCfg()
	cfg.Objective = ObjMakespan
	agent := smallAgent(14)
	tr := NewTrainer(agent, cfg, rand.New(rand.NewSource(15)))
	st := tr.Iteration(smallSource(2), sim.Idealized(5))
	if st.MeanReturn > 0 {
		t.Fatalf("makespan return %v should be a penalty", st.MeanReturn)
	}
}

func TestReturnsAreCumulativePenalties(t *testing.T) {
	// Returns must be non-decreasing in k (penalties accumulate from the
	// end): R_k ≤ R_{k+1} for the avg-JCT objective.
	cfg := quickCfg()
	agent := smallAgent(16)
	tr := NewTrainer(agent, cfg, rand.New(rand.NewSource(17)))
	src := smallSource(3)
	jobs := src(rand.New(rand.NewSource(18)))
	ep := tr.rollout(jobs, sim.Idealized(5), 1e9, 19)
	if len(ep.returns) == 0 {
		t.Fatal("no steps")
	}
	for k := 1; k < len(ep.returns); k++ {
		if ep.returns[k] < ep.returns[k-1]-1e-9 {
			t.Fatalf("returns decreasing at %d: %v → %v", k, ep.returns[k-1], ep.returns[k])
		}
	}
	if ep.returns[len(ep.returns)-1] > 1e-9 {
		t.Fatal("final return should be ≤ 0")
	}
}

func TestBaselineAtInterpolation(t *testing.T) {
	ep := &episode{
		steps: []core.ReplayStep{
			{Time: 1}, {Time: 5}, {Time: 9},
		},
		returns: []float64{-10, -6, -1},
	}
	cases := map[float64]float64{0: -10, 1: -10, 3: -10, 5: -6, 7: -6, 9: -1, 100: -1}
	for tt, want := range cases {
		if got := baselineAt(ep, tt); got != want {
			t.Fatalf("baselineAt(%v) = %v, want %v", tt, got, want)
		}
	}
	if got := baselineAt(&episode{}, 5); got != 0 {
		t.Fatalf("empty episode baseline = %v", got)
	}
}

func TestEntropyDecays(t *testing.T) {
	agent := smallAgent(20)
	tr := NewTrainer(agent, quickCfg(), rand.New(rand.NewSource(21)))
	tr.Iteration(smallSource(2), sim.Idealized(5))
	if want := 0.2 * 0.999; math.Abs(tr.entropyWeight-want) > 1e-12 {
		t.Fatalf("entropy weight = %v after one decay, want %v", tr.entropyWeight, want)
	}
}

// TestReturnsToLossWeights pins the one path from an episode to its loss
// weights, hand-computed for a 3-step episode under both baselines: the
// trainer's sibling baseline (a second episode of the same sequence) and the
// online trainer's episode mean.
func TestReturnsToLossWeights(t *testing.T) {
	// Job-seconds 0, 4, 10 at the decisions (t = 0, 2, 5) and 16 at the
	// end give returns −16, −12, −6.
	steps := []core.ReplayStep{{Time: 0, JobSeconds: 0}, {Time: 2, JobSeconds: 4}, {Time: 5, JobSeconds: 10}}
	returns := JCTReturns(nil, steps, 16)
	if want := []float64{-16, -12, -6}; !slices.Equal(returns, want) {
		t.Fatalf("returns %v, want %v", returns, want)
	}
	// The sibling has returns −10 (t = 0) and −8 (t = 4): read at this
	// episode's decision times it is −10, −10, −8.
	sibling := &episode{steps: []core.ReplayStep{{Time: 0}, {Time: 4}}, returns: []float64{-10, -8}}
	for k, want := range []float64{-10, -10, -8} {
		if got := baselineAt(sibling, steps[k].Time); got != want {
			t.Fatalf("sibling baseline at t=%v: %v, want %v", steps[k].Time, got, want)
		}
	}
	const beta = 0.5
	cases := []struct {
		name     string
		baseline []float64 // per step
		// others are the advantages of the rest of the batch, pooled into
		// the normalisation.
		others   []float64
		wantLogp []float64
	}{
		{
			// Baseline −34/3: advantages −14/3, −2/3, 16/3 with
			// σ² = (196 + 4 + 256)/27 = 152/9 and scale 1/3, so
			// wLogp = −(a/σ)/3 = −a/√152.
			name:     "episode mean",
			baseline: []float64{-34.0 / 3, -34.0 / 3, -34.0 / 3},
			wantLogp: []float64{14 / (3 * math.Sqrt(152)), 2 / (3 * math.Sqrt(152)), -16 / (3 * math.Sqrt(152))},
		},
		{
			// Advantages −6, −2, 2; the sibling's against this episode (read
			// at t = 0, 4 as −16, −12) are 6 and 4. Pooled: mean 0.8,
			// σ² = (46.24 + 7.84 + 1.44 + 27.04 + 10.24)/5 = 18.56, scale 1/5.
			name:     "sibling",
			baseline: []float64{-10, -10, -8},
			others:   []float64{6, 4},
			wantLogp: []float64{6 / (5 * math.Sqrt(18.56)), 2 / (5 * math.Sqrt(18.56)), -2 / (5 * math.Sqrt(18.56))},
		},
	}
	for _, c := range cases {
		advs := make([]float64, len(returns))
		for k := range advs {
			advs[k] = returns[k] - c.baseline[k]
		}
		std, scale := Normalization(advs, c.others)
		wLogp, wEnt := LossWeights(nil, nil, advs, std, scale, beta)
		for k := range advs {
			if math.Abs(wLogp[k]-c.wantLogp[k]) > 1e-8 {
				t.Errorf("%s: wLogp[%d] = %v, want %v", c.name, k, wLogp[k], c.wantLogp[k])
			}
			if want := -beta * scale; wEnt[k] != want {
				t.Errorf("%s: wEnt[%d] = %v, want %v", c.name, k, wEnt[k], want)
			}
		}
	}
	if std, scale := Normalization(); std != 1 || scale != 1 {
		t.Fatalf("empty batch: σ %v, scale %v; want 1, 1", std, scale)
	}
}
