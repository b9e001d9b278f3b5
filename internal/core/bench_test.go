package core

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// benchState assembles a representative mid-run cluster snapshot: numJobs
// TPC-H jobs with their root stages runnable and half the cluster's
// executors free. Benchmarks call Schedule on it directly, measuring one
// event decision without simulator overhead.
func benchState(numJobs, execs int) *sim.State {
	rng := rand.New(rand.NewSource(1))
	st := &sim.State{Time: 100, TotalExecutors: execs, MoveDelay: 2.5}
	for _, j := range workload.Batch(rng, numJobs) {
		js := &sim.JobState{Job: j, Limit: 2, Executors: 1, ExecutorSeconds: map[int]float64{}}
		for _, stg := range j.Stages {
			js.Stages = append(js.Stages, &sim.StageState{Stage: stg, Job: js})
		}
		st.Jobs = append(st.Jobs, js)
	}
	for i := 0; i < execs/2; i++ {
		st.FreeExecutors = append(st.FreeExecutors, &sim.Executor{ID: i, Mem: 1})
	}
	return st
}

// benchDecision measures one eval-mode scheduling decision, reporting its
// allocations: on an unchanged state (every embedding cached), or with one
// job touched before each decision (one re-embed, the serving steady state).
func benchDecision(b *testing.B, mkAgent func() *Agent, oneJobChanged bool) {
	b.Helper()
	st := benchState(10, 20)
	a := mkAgent()
	a.Greedy = true
	if a.Schedule(st) == nil {
		b.Fatal("benchmark state yields no action")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if oneJobChanged {
			st.Jobs[i%len(st.Jobs)].Touch()
		}
		a.Schedule(st)
	}
}

func newBenchAgent() *Agent { return New(DefaultConfig(20), rand.New(rand.NewSource(3))) }

// BenchmarkInferenceDecision is the headline number: one scheduling
// decision (no-grad fused forward + warm incremental embedding cache), as
// rollouts, evaluation and the serving path run it.
func BenchmarkInferenceDecision(b *testing.B) { benchDecision(b, newBenchAgent, false) }

// BenchmarkInferenceDecisionOneJobChanged is the same decision after an
// event touched one job: nine cache hits, one re-embed into a recycled entry.
func BenchmarkInferenceDecisionOneJobChanged(b *testing.B) { benchDecision(b, newBenchAgent, true) }

// BenchmarkInferenceDecisionNoCache prices the cache: every decision
// re-embeds every job.
func BenchmarkInferenceDecisionNoCache(b *testing.B) {
	benchDecision(b, func() *Agent {
		a := newBenchAgent()
		a.NoCache = true
		return a
	}, false)
}
