package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig13 reproduces Figure 13: qualitatively different learned policies per
// environment and objective — (a) average JCT with costly executor motion,
// (b) average JCT with free motion, (c) makespan. The shape to reproduce:
// the makespan-trained policy has the lowest makespan but a higher average
// JCT than the JCT-trained policies.
func Fig13(sc Scale) *Table {
	t := &Table{
		Title:  "Figure 13: learned policies per objective/environment",
		Header: []string{"setting", "avg_jct_s", "makespan_s"},
	}
	jobs := workload.Batch(rand.New(rand.NewSource(sc.Seed+1000)), sc.BatchJobs)
	seqs := [][]*dag.Job{jobs}
	src := smallJobSource(sc.BatchJobs, 3)

	// (a) avg JCT objective, costly executor motion.
	cfgA := sim.SparkDefaults(sc.Executors)
	agentA := trainAgent(sc, cfgA, src, nil, nil)
	jct, ms := rl.Evaluate(agentA, seqs, cfgA, sc.Seed)
	t.Add("(a) avg JCT, move delay 2.5s", jct, ms)

	// (b) avg JCT objective, free executor motion.
	cfgB := sim.SparkDefaults(sc.Executors)
	cfgB.MoveDelay = 0
	agentB := trainAgent(sc, cfgB, src, nil, nil)
	jct, ms = rl.Evaluate(agentB, seqs, cfgB, sc.Seed)
	t.Add("(b) avg JCT, free motion", jct, ms)

	// (c) makespan objective.
	agentC := trainAgent(sc, cfgA, src, nil, func(c *rl.Config) { c.Objective = rl.ObjMakespan })
	jct, ms = rl.Evaluate(agentC, seqs, cfgA, sc.Seed)
	t.Add("(c) makespan objective", jct, ms)
	return t
}

// Fig14 reproduces Figure 14: the ablation of Decima's key ideas across
// cluster loads, against the tuned weighted-fair heuristic. Variants:
// full Decima, without the graph embedding, without parallelism control,
// trained on batched arrivals only, and without variance reduction.
func Fig14(sc Scale, loads []float64) *Table {
	t := &Table{
		Title:  "Figure 14: ablation of key ideas vs cluster load (avg JCT)",
		Header: []string{"variant"},
	}
	for _, l := range loads {
		t.Header = append(t.Header, fmt.Sprintf("load_%.0f%%", l*100))
	}
	simCfg := sim.SparkDefaults(sc.Executors)

	variants := []struct {
		name string
		mod  func(*core.Config)
		rmod func(*rl.Config)
	}{
		{"opt-wfair (heuristic)", nil, nil},
		{"decima", nil, nil},
		{"decima w/o graph embedding", func(c *core.Config) { c.NoGraphEmbedding = true }, nil},
		{"decima w/o parallelism control", func(c *core.Config) { c.NoParallelismControl = true }, nil},
		{"decima trained on batched arrivals", nil, nil}, // source swapped below
		{"decima w/o variance reduction", nil, func(c *rl.Config) { c.UnfixedSequences = true }},
	}

	rows := make([][]any, len(variants))
	for i, v := range variants {
		rows[i] = []any{v.name}
	}
	for _, load := range loads {
		iat := workload.IATForLoad(load, sc.Executors)
		test := workload.Poisson(rand.New(rand.NewSource(sc.Seed+2000)), sc.ContinuousJobs, iat)
		seqs := [][]*dag.Job{test}

		// Continuous-arrival training source at this load.
		contSrc := func(rng *rand.Rand) []*dag.Job {
			return workload.Poisson(rng, sc.BatchJobs, iat)
		}
		batchSrc := smallJobSource(sc.BatchJobs, 3)

		for i, v := range variants {
			if v.name == "opt-wfair (heuristic)" {
				jct, _ := rl.EvaluateScheduler(policy(sc, simCfg, "opt-wfair", nil), seqs, simCfg, sc.Seed)
				rows[i] = append(rows[i], jct)
				continue
			}
			src := contSrc
			if v.name == "decima trained on batched arrivals" {
				src = batchSrc
			}
			agent := trainAgent(sc, simCfg, src, v.mod, v.rmod)
			jct, _ := rl.Evaluate(agent, seqs, simCfg, sc.Seed)
			rows[i] = append(rows[i], jct)
		}
	}
	for _, r := range rows {
		t.Add(r...)
	}
	return t
}

// Table2 reproduces Table 2: generalisation across interarrival-time
// shifts. Agents trained on the test IAT, an anti-skewed IAT, mixed IATs,
// and mixed IATs with the interarrival-time hint feature are all tested on
// a 45-second-equivalent workload.
func Table2(sc Scale) *Table {
	t := &Table{
		Title:  "Table 2: generalisation to changing workloads",
		Header: []string{"setup", "avg_jct_s"},
	}
	simCfg := sim.SparkDefaults(sc.Executors)
	testIAT := workload.IATForLoad(0.85, sc.Executors)
	antiIAT := testIAT * 75 / 45 // the paper's 45 s → 75 s skew ratio
	test := workload.Poisson(rand.New(rand.NewSource(sc.Seed+3000)), sc.ContinuousJobs, testIAT)
	seqs := [][]*dag.Job{test}

	srcIAT := func(iat float64) rl.JobSource {
		return func(rng *rand.Rand) []*dag.Job { return workload.Poisson(rng, sc.BatchJobs, iat) }
	}
	mixedSrc := func(rng *rand.Rand) []*dag.Job {
		iat := testIAT * (0.9 + rng.Float64()*0.8) // spans the 42–75 s band
		return workload.Poisson(rng, sc.BatchJobs, iat)
	}

	jct, _ := rl.EvaluateScheduler(policy(sc, simCfg, "opt-wfair", nil), seqs, simCfg, sc.Seed)
	t.Add("opt. weighted fair (best heuristic)", jct)

	agent := trainAgent(sc, simCfg, srcIAT(testIAT), nil, nil)
	jct, _ = rl.Evaluate(agent, seqs, simCfg, sc.Seed)
	t.Add("decima, trained on test workload", jct)

	agent = trainAgent(sc, simCfg, srcIAT(antiIAT), nil, nil)
	jct, _ = rl.Evaluate(agent, seqs, simCfg, sc.Seed)
	t.Add("decima, trained on anti-skewed workload", jct)

	agent = trainAgent(sc, simCfg, mixedSrc, nil, nil)
	jct, _ = rl.Evaluate(agent, seqs, simCfg, sc.Seed)
	t.Add("decima, trained on mixed workloads", jct)

	agent = trainAgent(sc, simCfg, mixedSrc, func(c *core.Config) {
		c.UseIATFeature = true
		c.IATHint = testIAT
	}, nil)
	jct, _ = rl.Evaluate(agent, seqs, simCfg, sc.Seed)
	t.Add("decima, mixed workloads + IAT hint", jct)
	return t
}

// Fig15a reproduces Figure 15a: learning curves under the three action
// encodings — Decima's job-level limit-as-input design, per-limit score
// functions (no limit input), and stage-level granularity. The shape to
// reproduce: the default design learns fastest.
func Fig15a(sc Scale, evalEvery int) *Table {
	t := &Table{
		Title:  "Figure 15a: learning curves per action encoding (test avg JCT)",
		Header: []string{"iteration", "decima", "no_limit_input", "stage_level"},
	}
	simCfg := sim.SparkDefaults(sc.Executors)
	src := smallJobSource(sc.BatchJobs, 2)
	seqs := evalSeqs(2, sc.BatchJobs, sc.Seed+4000)

	type variant struct {
		agent *core.Agent
		tr    *rl.Trainer
	}
	mk := func(mod func(*core.Config)) *variant {
		a, tr := newTrainer(sc, simCfg, mod, nil)
		return &variant{agent: a, tr: tr}
	}
	vs := []*variant{
		mk(nil),
		mk(func(c *core.Config) { c.NoLimitInput = true }),
		mk(func(c *core.Config) { c.StageLevelLimits = true }),
	}
	checkpoints := sc.TrainIters / evalEvery
	if checkpoints < 1 {
		checkpoints = 1
	}
	for cp := 0; cp <= checkpoints; cp++ {
		row := []any{cp * evalEvery}
		for _, v := range vs {
			jct, _ := rl.Evaluate(v.agent, seqs, simCfg, sc.Seed)
			row = append(row, jct)
		}
		t.Add(row...)
		if cp < checkpoints {
			for _, v := range vs {
				v.tr.Train(evalEvery, src, simCfg, nil)
			}
		}
	}
	return t
}

// Table3 reproduces Table 3 (Appendix I): generalisation across scale —
// agents trained with far fewer concurrent jobs or far fewer executors,
// tested at full scale.
func Table3(sc Scale) *Table {
	t := &Table{
		Title:  "Table 3: generalisation across scale (Appendix I)",
		Header: []string{"training scenario", "avg_jct_s"},
	}
	simCfg := sim.SparkDefaults(sc.Executors)
	test := workload.Poisson(
		rand.New(rand.NewSource(sc.Seed+5000)),
		sc.ContinuousJobs,
		workload.IATForLoad(0.75, sc.Executors),
	)
	seqs := [][]*dag.Job{test}

	agent := trainAgent(sc, simCfg, smallJobSource(sc.BatchJobs, 3), nil, nil)
	jct, _ := rl.Evaluate(agent, seqs, simCfg, sc.Seed)
	t.Add("trained at test scale", jct)

	fewer := sc.BatchJobs / 3
	if fewer < 1 {
		fewer = 1
	}
	agent = trainAgent(sc, simCfg, smallJobSource(fewer, 3), nil, nil)
	jct, _ = rl.Evaluate(agent, seqs, simCfg, sc.Seed)
	t.Add(fmt.Sprintf("trained with %dx fewer jobs", sc.BatchJobs/fewer), jct)

	smallExec := sc.Executors / 2
	if smallExec < 2 {
		smallExec = 2
	}
	// Train in a smaller cluster; evaluation happens at full scale. The
	// agent's limit head is sized by its own config, so train it with the
	// full limit range but roll out in the small cluster.
	smallCfg := sim.SparkDefaults(smallExec)
	agent = trainAgent(sc, smallCfg, smallJobSource(sc.BatchJobs, 3), nil, nil)
	jct, _ = rl.Evaluate(agent, seqs, simCfg, sc.Seed)
	t.Add(fmt.Sprintf("trained on %dx smaller cluster", sc.Executors/smallExec), jct)
	return t
}

// Fig23 reproduces Figure 23 (Appendix J): Decima trained and evaluated
// without task-duration estimates, versus full-information Decima and the
// best heuristic.
func Fig23(sc Scale) *Table {
	t := &Table{
		Title:  "Figure 23: incomplete information (Appendix J)",
		Header: []string{"scheduler", "avg_jct_s"},
	}
	simCfg := sim.SparkDefaults(sc.Executors)
	seqs := evalSeqs(sc.Runs, sc.BatchJobs, sc.Seed+6000)
	src := smallJobSource(sc.BatchJobs, 3)

	jct, _ := rl.EvaluateScheduler(policy(sc, simCfg, "opt-wfair", nil), seqs, simCfg, sc.Seed)
	t.Add("opt. weighted fair", jct)

	agent := trainAgent(sc, simCfg, src, nil, nil)
	jct, _ = rl.Evaluate(agent, seqs, simCfg, sc.Seed)
	t.Add("decima (full information)", jct)

	agent = trainAgent(sc, simCfg, src, func(c *core.Config) { c.NoTaskDurations = true }, nil)
	jct, _ = rl.Evaluate(agent, seqs, simCfg, sc.Seed)
	t.Add("decima w/o task durations", jct)
	return t
}
