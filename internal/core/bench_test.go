package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/nn"
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

// BenchmarkDecideAtScale is ROADMAP item 11(a)'s probe: a warm greedy
// decision (every embedding cached) on 20-, 100- and 200-job states, the
// regime of Fig. 15b, and the Q head's forward alone over that decision's
// own candidate rows, timed alternately in one loop so both see the same
// machine. decide_ns/op is the decision, q_ns/op the Q forward, q_share
// their ratio: the most a cheaper Q head could save. ns/op is their sum.
func BenchmarkDecideAtScale(b *testing.B) {
	for _, jobs := range []int{20, 100, 200} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			st := benchState(jobs, 20)
			a := newBenchAgent()
			a.Greedy = true
			if a.Schedule(st) == nil {
				b.Fatal("benchmark state yields no action")
			}
			// The decision's own Q input: one [e_v, y_i, z] row per candidate.
			q, emb, cands := a.Pol.Q, &a.emb, len(a.cands)
			var rows []float64
			for _, c := range a.cands {
				nodes, dy := emb.Nodes[c.JobIdx], emb.Jobs.Cols
				rows = append(rows, nodes.Data[c.NodeIdx*nodes.Cols:(c.NodeIdx+1)*nodes.Cols]...)
				rows = append(rows, emb.Jobs.Data[c.JobIdx*dy:(c.JobIdx+1)*dy]...)
				rows = append(rows, emb.Global.Data...)
			}
			if len(rows) != cands*q.InDim() {
				b.Fatalf("built %d Q inputs, want %d×%d", len(rows), cands, q.InDim())
			}
			var s nn.Scratch
			var decide, qTime time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				a.Schedule(st)
				t1 := time.Now()
				s.Reset()
				mat := s.AllocTensor(cands, q.InDim())
				copy(mat.Data, rows)
				q.ForwardInference(mat, &s)
				decide += t1.Sub(t0)
				qTime += time.Since(t1)
			}
			b.ReportMetric(float64(cands), "cands")
			b.ReportMetric(float64(decide.Nanoseconds())/float64(b.N), "decide_ns/op")
			b.ReportMetric(float64(qTime.Nanoseconds())/float64(b.N), "q_ns/op")
			b.ReportMetric(float64(qTime)/float64(decide), "q_share")
		})
	}
}
