package exp

import (
	"math"
	"math/rand"

	"repro/internal/dag"
	"repro/internal/gnn"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/sched"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig16Job builds the Appendix A example DAG on 5 task slots: a join fed
// by a light left branch (10 task-seconds) and a heavy right branch (90
// task-seconds). A critical-path-first schedule dedicates all slots to the
// right branch and finishes in 28+3ε; the optimal plan clears the tiny
// left stages first, overlaps the serial (1,10) stage with the wide (40,1)
// stage, and finishes in 20+3ε — 29% faster. Stage layout (#tasks, dur):
//
//	left:  0:(5,ε) → 1:(5,ε) → 2:(1,10)
//	right: 3:(40,1) → 4:(5,10)
//	join:  5:(5,ε) depends on 2 and 4
func Fig16Job(eps float64) *dag.Job {
	j := &dag.Job{Name: "appendix-a"}
	add := func(tasks int, dur float64) {
		j.Stages = append(j.Stages, &dag.Stage{ID: len(j.Stages), NumTasks: tasks, TaskDuration: dur, CPUReq: 1})
	}
	add(5, eps) // 0
	add(5, eps) // 1
	add(1, 10)  // 2
	add(40, 1)  // 3
	add(5, 10)  // 4
	add(5, eps) // 5: join
	j.AddEdge(0, 1)
	j.AddEdge(1, 2)
	j.AddEdge(3, 4)
	j.AddEdge(2, 5)
	j.AddEdge(4, 5)
	return j
}

// Fig16 reproduces the Appendix A illustration: the makespan of a
// critical-path-first schedule versus a schedule that plans ahead and
// overlaps the two branches, on a small slot count where the contention
// matters.
func Fig16(sc Scale) *Table {
	t := &Table{
		Title:  "Figure 16 (Appendix A): critical-path vs planned schedule",
		Header: []string{"scheduler", "makespan_s"},
	}
	const eps = 0.05
	const slots = 5
	cfg := sim.Idealized(slots)

	run := func(s sim.Scheduler) float64 {
		job := Fig16Job(eps)
		return sim.New(cfg, []*dag.Job{job}, s, rand.New(rand.NewSource(sc.Seed))).Run().Makespan
	}
	cp := run(mkNamed("sjf-cp", scheduler.Options{})())
	t.Add("critical-path first", cp)

	// Planned schedule: clear the tiny left stages first, then overlap the
	// serial (1,10) stage with the wide (40,1) stage so both branches reach
	// the join together (the appendix's optimal order).
	planned := sim.SchedulerFunc(func(s *sim.State) *sim.Action {
		order := []int{0, 1, 2, 3, 4, 5}
		for _, id := range order {
			st := s.Jobs[0].Stages[id]
			if st.Runnable() && s.FreeCount(st) > 0 {
				return &sim.Action{Stage: st, Limit: slots, Class: -1}
			}
		}
		return nil
	})
	opt := run(planned)
	t.Add("planned (overlapping branches)", opt)
	t.Add("ratio cp/planned", cp/opt)
	return t
}

// Fig18 reproduces Appendix D's simulator-fidelity test, adapted to this
// repository's substitution: the detailed simulator configuration (waves,
// startup delays, inflation, noise) plays the role of "real Spark", and an
// idealised configuration plays the naive simulator. The figure's point —
// omitting first-order effects systematically underestimates runtimes — is
// reproduced by measuring the per-job error distribution, for jobs run in
// isolation and on a shared cluster.
func Fig18(sc Scale) *Table {
	t := &Table{
		Title:  "Figure 18 (Appendix D): detailed vs idealised simulator error",
		Header: []string{"setting", "mean_error_%", "p95_error_%"},
	}
	measure := func(shared bool) (float64, float64) {
		var errs []float64
		for i := 0; i < sc.Runs; i++ {
			rng := rand.New(rand.NewSource(sc.Seed + int64(i)))
			n := 1
			if shared {
				n = 5
			}
			jobs := workload.Batch(rng, n)
			detailed := sim.New(sim.SparkDefaults(sc.Executors), workload.CloneAll(jobs), mkNamed("fair", scheduler.Options{})(), rand.New(rand.NewSource(sc.Seed+int64(i)))).Run()
			ideal := sim.New(sim.Idealized(sc.Executors), workload.CloneAll(jobs), mkNamed("fair", scheduler.Options{})(), rand.New(rand.NewSource(sc.Seed+int64(i)))).Run()
			det := map[int]float64{}
			for _, r := range detailed.Completed {
				det[r.ID] = r.JCT()
			}
			for _, r := range ideal.Completed {
				if d, ok := det[r.ID]; ok && d > 0 {
					errs = append(errs, math.Abs(d-r.JCT())/d*100)
				}
			}
		}
		return metrics.Mean(errs), metrics.Percentile(errs, 95)
	}
	m, p := measure(false)
	t.Add("single job in isolation", m, p)
	m, p = measure(true)
	t.Add("mixture on shared cluster", m, p)
	return t
}

// Fig19 reproduces Appendix E: supervised critical-path learning. A GNN
// with Decima's two-level aggregation (f and g) learns to identify the
// node with the maximum critical-path value on unseen random DAGs, while a
// single-level aggregation plateaus — because computing the critical path
// needs a max, which a plain sum-of-f cannot express.
func Fig19(sc Scale, evalEvery int) *Table {
	t := &Table{
		Title:  "Figure 19 (Appendix E): critical-path identification accuracy",
		Header: []string{"iteration", "two_level_acc", "single_level_acc"},
	}
	type model struct {
		g    *gnn.GNN
		head *nn.Linear
		opt  *nn.Adam
	}
	mk := func(single bool) *model {
		rng := rand.New(rand.NewSource(sc.Seed))
		g := gnn.New(gnn.Config{FeatDim: 2, EmbedDim: 8, Hidden: []int{16}, SingleLevel: single}, rng)
		return &model{g: g, head: nn.NewLinear(8, 1, rng), opt: nn.NewAdam(0.01)}
	}
	sample := func(rng *rand.Rand) (*gnn.Graph, []float64) {
		j := dag.Random(rng, 5+rng.Intn(7), 0.3)
		// Heavy-tailed per-stage work decorrelates the max-downstream path
		// from the sum of downstream work, so only an architecture that can
		// express max (the two-level aggregation) identifies the critical
		// path reliably.
		for _, st := range j.Stages {
			st.NumTasks = 1
			st.TaskDuration = math.Exp(rng.NormFloat64() * 1.5)
		}
		feats := nn.Zeros(len(j.Stages), 2)
		cp := j.CriticalPath()
		for i, s := range j.Stages {
			feats.Set(i, 0, s.Work()/5)
			feats.Set(i, 1, float64(len(s.Children)))
		}
		return gnn.NewGraph(j, feats), cp
	}
	// embed is the tracked forward of one graph: a batch of one.
	embed := func(m *model, gr *gnn.Graph) *nn.Tensor { return m.g.ForwardBatch(nil, []*gnn.Graph{gr}).Nodes }
	params := func(m *model) []*nn.Tensor { return append(m.g.Params(), m.head.Params()...) }
	trainStep := func(m *model, rng *rand.Rand) {
		gr, cp := sample(rng)
		target := nn.Zeros(len(cp), 1)
		for i, v := range cp {
			target.Set(i, 0, v/5)
		}
		nn.ZeroGrads(params(m))
		nn.MSE(m.head.Forward(embed(m, gr)), target).Backward(1)
		m.opt.Step(params(m))
	}
	accuracy := func(m *model) float64 {
		rng := rand.New(rand.NewSource(sc.Seed + 999))
		correct := 0
		const trials = 100
		for i := 0; i < trials; i++ {
			gr, cp := sample(rng)
			pred := m.head.Forward(embed(m, gr))
			bestP, bestT := 0, 0
			for r := 1; r < pred.Rows; r++ {
				if pred.At(r, 0) > pred.At(bestP, 0) {
					bestP = r
				}
				if cp[r] > cp[bestT] {
					bestT = r
				}
			}
			if bestP == bestT {
				correct++
			}
		}
		return float64(correct) / trials * 100
	}
	two := mk(false)
	one := mk(true)
	rngT := rand.New(rand.NewSource(sc.Seed + 1))
	rngO := rand.New(rand.NewSource(sc.Seed + 1))
	checkpoints := sc.TrainIters / evalEvery
	if checkpoints < 1 {
		checkpoints = 1
	}
	for cp := 0; cp <= checkpoints; cp++ {
		t.Add(cp*evalEvery, accuracy(two), accuracy(one))
		if cp < checkpoints {
			for i := 0; i < evalEvery; i++ {
				trainStep(two, rngT)
				trainStep(one, rngO)
			}
		}
	}
	return t
}

// Fig22 reproduces Appendix H: Decima versus an exhaustive search over all
// job orderings in the simplified environment (no waves, no move delays,
// no inflation). The exhaustive search bounds how much any ordering-based
// policy could gain.
func Fig22(sc Scale) *Table {
	t := &Table{
		Title:  "Figure 22 (Appendix H): optimality vs exhaustive job-order search",
		Header: []string{"scheduler", "avg_jct_s"},
	}
	cfg := sim.Idealized(sc.Executors)
	// Exhaustive search over n! orderings: keep n small.
	n := 6
	jobs := workload.Batch(rand.New(rand.NewSource(sc.Seed+7000)), n)
	seqs := [][]*dag.Job{jobs}

	// The heuristic reference rows honour a Scale.Schedulers selection; the
	// exhaustive search and Decima rows are the figure's point and always
	// run.
	var jct float64
	for _, name := range sc.schedulerNames("sjf-cp", "opt-wfair") {
		if name == "decima" {
			continue
		}
		jct, _ = rl.EvaluateScheduler(mkNamed(name, scheduler.Options{Seed: sc.Seed}), seqs, cfg, sc.Seed)
		t.Add(name, jct)
	}

	best := math.Inf(1)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	permute(perm, 0, func(order []int) {
		res := sim.New(cfg, workload.CloneAll(jobs), sched.NewFixedOrder(order), rand.New(rand.NewSource(sc.Seed))).Run()
		if j := res.AvgJCT(); j < best {
			best = j
		}
	})
	t.Add("exhaustive order search", best)

	agent := trainAgent(sc, cfg, smallJobSource(n, 3), nil, nil)
	jct, _ = rl.Evaluate(agent, seqs, cfg, sc.Seed)
	t.Add("decima", jct)
	return t
}

// permute enumerates all permutations of p[i:], invoking f on each complete
// ordering (Heap's-style recursive swap enumeration).
func permute(p []int, i int, f func([]int)) {
	if i == len(p) {
		f(p)
		return
	}
	for j := i; j < len(p); j++ {
		p[i], p[j] = p[j], p[i]
		permute(p, i+1, f)
		p[i], p[j] = p[j], p[i]
	}
}
