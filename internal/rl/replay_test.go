package rl

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gnn"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// trackedReference rolls out the same episode task on the pre-replay tracked
// path (a recording Hook forces per-decision autograd graphs) and returns
// the recorded steps. It reproduces runEpisode's RNG wiring exactly: one
// stream drives both action sampling and simulator noise.
func trackedReference(agent *core.Agent, tk rolloutTask, simCfg sim.Config) []*core.Step {
	ref := agent.Clone(rand.New(rand.NewSource(1)))
	var steps []*core.Step
	ref.Hook = func(s *core.Step) { steps = append(steps, s) }
	rng := rand.New(rand.NewSource(tk.seed))
	ref.SetRNG(rng)
	sim.New(simCfg, workload.CloneAll(tk.jobs), ref, rng).RunUntil(tk.horizon)
	return steps
}

// deepCopyGrads snapshots a grads slice-of-slices.
func deepCopyGrads(g [][]float64) [][]float64 {
	out := make([][]float64, len(g))
	for i, s := range g {
		if s != nil {
			out[i] = append([]float64(nil), s...)
		}
	}
	return out
}

// TestReplayEquivalence is the training fast path's equivalence bar, over
// randomized seeds:
//
//  1. the inference-mode rollout records exactly the decisions the tracked
//     path would have made (same step count, times, reward bookkeeping);
//  2. replaying the records — batched or direct-tape — reproduces the
//     tracked rollout's per-step log-probabilities and entropies bit for
//     bit (the replayed graph scores the exact distributions the actions
//     were sampled from);
//  3. the batched replay's episode gradient agrees with the direct-tape
//     reference gradient to numerical precision (the same mathematical
//     sum accumulated in a different floating-point order).
func TestReplayEquivalence(t *testing.T) {
	// Config variants cover every replay branch: the default limit-as-input
	// head, the NoLimitInput and StageLevelLimits alternatives of Fig. 15a,
	// the GNN ablation (raw-feature embeddings), and the multi-resource
	// class head.
	variants := []struct {
		name string
		mod  func(*core.Config)
		sim  func() sim.Config
	}{
		{"default", func(*core.Config) {}, func() sim.Config { return sim.SparkDefaults(5) }},
		{"no-limit-input", func(c *core.Config) { c.NoLimitInput = true }, func() sim.Config { return sim.SparkDefaults(5) }},
		{"stage-level", func(c *core.Config) { c.StageLevelLimits = true }, func() sim.Config { return sim.SparkDefaults(5) }},
		{"no-gnn", func(c *core.Config) { c.NoGraphEmbedding = true }, func() sim.Config { return sim.SparkDefaults(5) }},
		{"classes", func(c *core.Config) { c.ClassMem = []float64{0.5, 1.0} }, func() sim.Config {
			return sim.Config{
				Classes:         []sim.ExecutorClass{{Mem: 0.5, Count: 3}, {Mem: 1.0, Count: 2}},
				MoveDelay:       2.5,
				FirstWaveFactor: 1.3,
				DurationNoise:   0.05,
			}
		}},
	}
	seedRng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 2*len(variants); trial++ {
		v := variants[trial%len(variants)]
		seed := seedRng.Int63()
		acfg := core.DefaultConfig(5)
		acfg.EmbedDim = 4
		acfg.Hidden = []int{8}
		v.mod(&acfg)
		agent := core.New(acfg, rand.New(rand.NewSource(seed%1000)))
		cfg := quickCfg()
		src := smallSource(3)
		jobs := src(rand.New(rand.NewSource(seed)))
		simCfg := v.sim()
		tk := rolloutTask{jobs: jobs, horizon: 600, seed: seed + 7}

		eng := newEngine(agent, 1)
		eng.sync(agent)
		w := eng.workers[0]
		ep := w.rollout(cfg, 0, 0, tk, simCfg)
		if len(ep.steps) == 0 {
			t.Fatalf("trial %d: empty episode", trial)
		}

		// (1) the recorded trajectory matches the tracked rollout.
		ref := trackedReference(agent, tk, simCfg)
		if len(ref) != len(ep.steps) {
			t.Fatalf("trial %d: %d recorded steps vs %d tracked", trial, len(ep.steps), len(ref))
		}
		for k, s := range ref {
			if math.Float64bits(s.Time) != math.Float64bits(ep.steps[k].Time) ||
				math.Float64bits(s.JobSeconds) != math.Float64bits(ep.steps[k].JobSeconds) ||
				s.NumJobs != ep.steps[k].NumJobs {
				t.Fatalf("trial %d step %d: recorded bookkeeping diverged from tracked rollout", trial, k)
			}
		}

		// Arbitrary (but fixed) advantages so the two backwards see the
		// same non-trivial weights.
		ep.advs = resizeF(ep.advs, len(ep.steps))
		for k := range ep.advs {
			ep.advs[k] = ep.returns[k] - 0.5*ep.returns[0]
		}
		scale := 1 / float64(len(ep.steps))

		w.backward(ep, 1.0, scale, 0.1, false) // batched replay
		batchedLogp := append([]float64(nil), ep.logpVals...)
		batchedEnt := append([]float64(nil), ep.entVals...)
		batchedGrads := deepCopyGrads(ep.grads)

		w.backward(ep, 1.0, scale, 0.1, true) // direct-tape reference
		// (2) per-step values: batched == direct == tracked rollout, bitwise.
		for k := range ep.steps {
			if math.Float64bits(batchedLogp[k]) != math.Float64bits(ep.logpVals[k]) {
				t.Fatalf("trial %d step %d: batched logp %v != direct %v", trial, k, batchedLogp[k], ep.logpVals[k])
			}
			if math.Float64bits(batchedEnt[k]) != math.Float64bits(ep.entVals[k]) {
				t.Fatalf("trial %d step %d: batched entropy %v != direct %v", trial, k, batchedEnt[k], ep.entVals[k])
			}
			if math.Float64bits(ref[k].LogProb.Value()) != math.Float64bits(batchedLogp[k]) {
				t.Fatalf("trial %d step %d: replayed logp %v != tracked rollout %v", trial, k, batchedLogp[k], ref[k].LogProb.Value())
			}
			if math.Float64bits(ref[k].Entropy.Value()) != math.Float64bits(batchedEnt[k]) {
				t.Fatalf("trial %d step %d: replayed entropy %v != tracked rollout %v", trial, k, batchedEnt[k], ref[k].Entropy.Value())
			}
		}
		// (3) gradients to numerical precision.
		for i := range ep.grads {
			if (ep.grads[i] == nil) != (batchedGrads[i] == nil) {
				t.Fatalf("trial %d: gradient presence differs for param %d", trial, i)
			}
			for j := range ep.grads[i] {
				got, want := batchedGrads[i][j], ep.grads[i][j]
				if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("trial %d param %d[%d]: batched grad %v vs direct %v", trial, i, j, got, want)
				}
			}
		}
	}
}

// trainedParamsReplay trains a fresh agent and returns the flattened final
// parameters, selecting the backward implementation and worker count.
func trainedParamsReplay(workers, iters int, direct bool) []float64 {
	agent := smallAgent(200)
	cfg := quickCfg()
	cfg.EpisodesPerIter = 4
	cfg.Workers = workers
	cfg.DirectTape = direct
	tr := NewTrainer(agent, cfg, rand.New(rand.NewSource(201)))
	tr.Train(iters, smallSource(3), sim.SparkDefaults(5), nil)
	var out []float64
	for _, p := range agent.Params() {
		out = append(out, p.Data...)
	}
	return out
}

// TestDirectTapeTrainerWorkerInvariantAndCloseToBatched pins the two
// trainer backends against each other end to end: the direct-tape trainer
// is bit-identical across worker counts (like the batched default, which
// TestWorkersBitIdenticalTraining covers), and the batched trainer's
// parameters track the direct-tape reference to numerical precision over
// multiple full iterations (Adam steps included).
func TestDirectTapeTrainerWorkerInvariantAndCloseToBatched(t *testing.T) {
	direct := trainedParamsReplay(1, 3, true)
	for _, workers := range []int{2, 4} {
		got := trainedParamsReplay(workers, 3, true)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(direct[i]) {
				t.Fatalf("direct tape, workers=%d: param %d differs: %v vs %v", workers, i, got[i], direct[i])
			}
		}
	}
	batched := trainedParamsReplay(1, 3, false)
	for i := range batched {
		if d := math.Abs(batched[i] - direct[i]); d > 1e-6*(1+math.Abs(direct[i])) {
			t.Fatalf("param %d: batched %v vs direct-tape %v (Δ=%g)", i, batched[i], direct[i], d)
		}
	}
}

// TestParallelReplayRaceClean exercises multi-worker inference rollouts and
// batched replays concurrently; under `go test -race` (make race) it is the
// data-race check of the rollout/replay split — worker clones, scratch
// arenas, embedding caches and pooled episode records must share nothing.
func TestParallelReplayRaceClean(t *testing.T) {
	for _, direct := range []bool{false, true} {
		agent := smallAgent(33)
		cfg := quickCfg()
		cfg.EpisodesPerIter = 6
		cfg.Workers = 4
		cfg.DirectTape = direct
		tr := NewTrainer(agent, cfg, rand.New(rand.NewSource(34)))
		for i := 0; i < 2; i++ {
			if st := tr.Iteration(smallSource(3), sim.SparkDefaults(5)); st.MeanSteps <= 0 {
				t.Fatalf("direct=%v: no decisions in parallel iteration", direct)
			}
		}
	}
}

// TestRetainedStepsSurviveLaterDecisions pins the recorder half of the
// ReplayStep contract: every slice Agent.Record hands out aliases agent
// scratch that the next decision overwrites, so the episode's pooled arena
// must hold copies. Each retained step is compared, after the episode's
// remaining (≥ 100) decisions ran, with a plain deep copy taken at record
// time by a reference rollout of the same task.
func TestRetainedStepsSurviveLaterDecisions(t *testing.T) {
	acfg := core.DefaultConfig(5)
	acfg.ClassMem = []float64{0.5, 1.0}
	agent := core.New(acfg, rand.New(rand.NewSource(3)))
	simCfg := sim.Config{Classes: []sim.ExecutorClass{{Mem: 0.5, Count: 3}, {Mem: 1.0, Count: 2}}, MoveDelay: 2.5, FirstWaveFactor: 1.3}
	tk := rolloutTask{jobs: smallSource(12)(rand.New(rand.NewSource(4))), horizon: 1e6, seed: 11}

	ep := runEpisode(agent.Clone(rand.New(rand.NewSource(1))), quickCfg(), 0, tk, simCfg, &episode{worker: -1})

	ref := agent.Clone(rand.New(rand.NewSource(1)))
	var want []core.ReplayStep
	ref.Record = func(rs core.ReplayStep) {
		rs.Graphs = append([]*gnn.Graph(nil), rs.Graphs...)
		rs.Cands = append([]policy.Candidate(nil), rs.Cands...)
		rs.MinLimits = append([]int(nil), rs.MinLimits...)
		oks := make([][]bool, len(rs.ClassOKs))
		for i, ok := range rs.ClassOKs {
			oks[i] = append([]bool(nil), ok...)
		}
		rs.ClassOKs = oks
		want = append(want, rs)
	}
	rng := rand.New(rand.NewSource(tk.seed))
	ref.SetRNG(rng)
	sim.New(simCfg, workload.CloneAll(tk.jobs), ref, rng).RunUntil(tk.horizon)

	if len(want) < 101 || len(ep.steps) != len(want) {
		t.Fatalf("episode has %d steps, reference %d; want equal and > 100", len(ep.steps), len(want))
	}
	for k, got := range ep.steps {
		w := want[k]
		if len(got.Graphs) != len(w.Graphs) {
			t.Fatalf("step %d: %d graphs retained, %d recorded", k, len(got.Graphs), len(w.Graphs))
		}
		for i := range w.Graphs {
			if !reflect.DeepEqual(got.Graphs[i].Feats.Data, w.Graphs[i].Feats.Data) {
				t.Fatalf("step %d graph %d: retained observation differs from the recorded one", k, i)
			}
		}
		got.Graphs, w.Graphs = nil, nil
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("step %d changed after it was retained:\n got %+v\nwant %+v", k, got, w)
		}
	}
}
