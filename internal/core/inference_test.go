package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/gnn"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/workload"
)

// resultKey flattens the outcome of a run for exact comparison.
func resultKey(r *sim.Result) string {
	s := fmt.Sprintf("inv=%d js=%v ms=%v dl=%v unf=%d", r.Invocations, r.JobSeconds, r.Makespan, r.Deadlock, r.Unfinished)
	for _, j := range r.Completed {
		s += fmt.Sprintf("|%d:%v:%v", j.ID, j.Completion, j.WorkExecuted)
	}
	return s
}

// runWith evaluates one deterministic workload under the given agent and
// returns the flattened result. Sim noise and (when sampling) action draws
// are seeded identically across calls, so any divergence in the flattened
// result means the agents decided differently somewhere.
func runWith(a *Agent, jobs []*dag.Job, simSeed int64, cfg sim.Config) string {
	a.SetRNG(rand.New(rand.NewSource(simSeed + 1000)))
	res := sim.New(cfg, workload.CloneAll(jobs), a, rand.New(rand.NewSource(simSeed))).Run()
	return resultKey(res)
}

// trackedEmbed embeds the state on the tracked replay forward: every job's
// observation in one batch and the one decision's global summary.
func trackedEmbed(a *Agent, s *sim.State) (*gnn.Batch, *nn.Tensor) {
	var graphs []*gnn.Graph
	var all, seg []int
	for i, j := range s.Jobs {
		freeTotal, total, local := featureKeyInputs(s, j)
		graphs = append(graphs, heapGraph(a.observe(j, freeTotal, total, local, true)))
		all, seg = append(all, i), append(seg, 0)
	}
	b := a.GNN.ForwardBatch(nil, graphs)
	return b, a.GNN.GlobalsBatch(b.Jobs, all, seg, 1)
}

// TestCacheOnOffBitIdentical requires evaluation runs with the incremental
// embedding cache enabled and disabled to produce identical schedules and
// metrics — the hard equivalence bar of the cache design — over randomized
// continuous workloads with all simulator noise sources on.
func TestCacheOnOffBitIdentical(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(60 + trial)))
		jobs := workload.Poisson(rng, 8, workload.IATForLoad(0.6, 8))
		cfg := sim.SparkDefaults(8)

		cached := New(DefaultConfig(8), rand.New(rand.NewSource(9)))
		cached.Greedy = trial%2 == 0
		uncached := cached.Clone(rand.New(rand.NewSource(1)))
		uncached.Greedy = cached.Greedy
		uncached.NoCache = true

		a := runWith(cached, jobs, int64(trial), cfg)
		b := runWith(uncached, jobs, int64(trial), cfg)
		if a != b {
			t.Fatalf("trial %d: cache on/off results differ:\n%s\nvs\n%s", trial, a, b)
		}
	}
}

// TestIncrementalEmbedBitIdentical drives a full noisy simulation and, at
// every scheduling event, compares the incrementally cached embeddings
// against both a fresh uncached embed and the tracked replay forward —
// element for element, bit for bit — after arbitrary sequences of simulator
// mutations (task launches/completions, stage completions, executor moves,
// arrivals, departures).
func TestIncrementalEmbedBitIdentical(t *testing.T) {
	agent := New(DefaultConfig(8), rand.New(rand.NewSource(11)))
	agent.Greedy = true
	fresh := agent.Clone(rand.New(rand.NewSource(1)))
	fresh.NoCache = true

	events := 0
	probe := sim.SchedulerFunc(func(s *sim.State) *sim.Action {
		events++
		what := fmt.Sprintf("event %d", events)
		cached := agent.embedInference(s)
		batch, global := trackedEmbed(agent, s)
		d := batch.Nodes.Cols
		for i, nodes := range cached.Nodes {
			sameBits(t, what+": cached vs tracked node embeddings", nodes.Data, batch.Nodes.Data[batch.Off[i]*d:batch.Off[i]*d+len(nodes.Data)])
		}
		sameBits(t, what+": cached vs tracked job summaries", cached.Jobs.Data, batch.Jobs.Data)
		sameBits(t, what+": cached vs tracked global summary", cached.Global.Data, global.Data)
		sameBits(t, what+": uncached vs tracked global summary", fresh.embedInference(s).Global.Data, global.Data)
		return agent.Schedule(s)
	})

	rng := rand.New(rand.NewSource(21))
	jobs := workload.Poisson(rng, 10, workload.IATForLoad(0.7, 8))
	res := sim.New(sim.SparkDefaults(8), jobs, probe, rng).Run()
	if res.Unfinished != 0 || res.Deadlock {
		t.Fatalf("probe run did not complete: unfinished=%d deadlock=%v", res.Unfinished, res.Deadlock)
	}
	if events < 20 {
		t.Fatalf("probe saw only %d scheduling events", events)
	}
}

// TestVersionKeyInvariant checks the contract the cache is built on: for a
// fixed job pointer, whenever the (Version, freeTotal, local) key repeats
// across scheduling events, the job's feature matrix is identical.
func TestVersionKeyInvariant(t *testing.T) {
	agent := New(DefaultConfig(8), rand.New(rand.NewSource(31)))
	agent.Greedy = true
	type key struct {
		job       *sim.JobState
		version   uint64
		freeTotal int
		total     int
		local     float64
	}
	seen := map[key]string{}
	probe := sim.SchedulerFunc(func(s *sim.State) *sim.Action {
		for _, j := range s.Jobs {
			freeTotal, total, local := featureKeyInputs(s, j)
			h := fmt.Sprintf("%v", features(agent, s, j).Data)
			k := key{j, j.Version, freeTotal, total, local}
			if prev, ok := seen[k]; ok && prev != h {
				t.Fatalf("job %d: same cache key, different features — a sim mutation is missing a Version bump", j.Job.ID)
			}
			seen[k] = h
		}
		return agent.Schedule(s)
	})
	rng := rand.New(rand.NewSource(32))
	jobs := workload.Poisson(rng, 10, workload.IATForLoad(0.7, 8))
	if res := sim.New(sim.SparkDefaults(8), jobs, probe, rng).Run(); res.Unfinished != 0 {
		t.Fatalf("probe run did not complete")
	}
}

// TestFastPathParallelClones exercises the decide path from concurrent
// goroutines, each holding a private clone — the serving/evaluation
// concurrency model — and checks clones agree with a serial reference run.
// Run under -race (make race) this also proves the scratch arenas and
// embedding caches share no state.
func TestFastPathParallelClones(t *testing.T) {
	master := New(DefaultConfig(6), rand.New(rand.NewSource(51)))
	master.Greedy = true
	rng := rand.New(rand.NewSource(52))
	jobs := workload.Batch(rng, 4)
	want := runWith(master.Clone(rand.New(rand.NewSource(1))), jobs, 5, sim.SparkDefaults(6))

	const workers = 4
	got := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			clone := master.Clone(rand.New(rand.NewSource(int64(w))))
			got[w] = runWith(clone, jobs, 5, sim.SparkDefaults(6))
		}(w)
	}
	wg.Wait()
	for w, g := range got {
		if g != want {
			t.Fatalf("worker %d diverged from serial reference", w)
		}
	}
}
