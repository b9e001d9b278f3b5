package rl

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gnn"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

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
