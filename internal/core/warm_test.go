package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gnn"
	"repro/internal/nn"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ablations are the agent configurations whose fast paths differ: the
// default, the class head, both Fig. 15a limit encodings, the single-level
// GNN and no GNN at all. classes reports the simulator must be
// multi-resource.
var ablations = []struct {
	name    string
	mod     func(*Config)
	classes bool
}{
	{"default", func(*Config) {}, false},
	{"multi-resource", func(c *Config) { c.ClassMem = []float64{0.25, 0.5, 0.75, 1} }, true},
	{"stage-level-limits", func(c *Config) { c.StageLevelLimits = true }, false},
	{"no-limit-input", func(c *Config) { c.NoLimitInput = true }, false},
	{"single-level-gnn", func(c *Config) { c.SingleLevelGNN = true }, false},
	{"no-graph-embedding", func(c *Config) { c.NoGraphEmbedding = true }, false},
}

// TestDecideDoesNotAllocate is the warm-decision allocation bar: on an
// unchanged state (every embedding cached) and on a state where one job
// changed since the last decision (one re-embed into a recycled entry), a
// sampled Decide allocates nothing but its returned Action.
func TestDecideDoesNotAllocate(t *testing.T) {
	for _, ab := range ablations {
		cfg := DefaultConfig(20)
		ab.mod(&cfg)
		a := New(cfg, rand.New(rand.NewSource(3)))
		st := benchState(10, 20)
		decide := func() {
			if act, _ := a.Decide(st); act == nil {
				t.Fatalf("%s: no action", ab.name)
			}
		}
		decide()
		if n := testing.AllocsPerRun(100, decide); n > 2 {
			t.Errorf("%s: unchanged state: %v allocations per Decide, want ≤ 2", ab.name, n)
		}
		touched := 0
		touch := func() {
			st.Jobs[touched%len(st.Jobs)].Touch()
			touched++
			decide()
		}
		// Fill every job's entry set first: an entry's buffers are allocated
		// once, on the job's first maxEntriesPerJob keys.
		for i := 0; i < (maxEntriesPerJob+1)*len(st.Jobs); i++ {
			touch()
		}
		if n := testing.AllocsPerRun(100, touch); n > 2 {
			t.Errorf("%s: one job changed: %v allocations per Decide, want ≤ 2", ab.name, n)
		}
	}
}

// sameBits fails unless a and b hold identical float64s.
func sameBits(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d values", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s differs at %d: %v vs %v", what, i, a[i], b[i])
		}
	}
}

// recordedRun drives one noisy, sampled run of an ablation to completion on
// the cached decide path with Record on, shadowed by a NoCache clone on the
// same random stream that must choose the same action at every event. It
// returns the agent, its retained replay steps and, per step, the entropy
// −Σp·log p of the node distribution the action was sampled from. probe, if
// set, sees every state before the agents decide.
func recordedRun(t *testing.T, ai int, probe func(what string, fast *Agent, s *sim.State)) (*Agent, []ReplayStep, []float64) {
	t.Helper()
	ab := ablations[ai]
	cfg := DefaultConfig(8)
	ab.mod(&cfg)
	simCfg := sim.SparkDefaults(8)
	if ab.classes {
		simCfg.Classes = []sim.ExecutorClass{{Mem: 0.25, Count: 2}, {Mem: 0.5, Count: 2}, {Mem: 0.75, Count: 2}, {Mem: 1, Count: 2}}
	}
	fast := New(cfg, rand.New(rand.NewSource(int64(70+ai))))
	fresh := fast.Clone(rand.New(rand.NewSource(1)))
	fresh.NoCache = true
	fast.SetRNG(rand.New(rand.NewSource(5)))
	fresh.SetRNG(rand.New(rand.NewSource(5)))
	var steps []ReplayStep
	var arena StepArena
	fast.Record = func(rs ReplayStep) { steps = append(steps, arena.Retain(rs)) }

	var entropies []float64
	var sc nn.Scratch
	run := sim.SchedulerFunc(func(s *sim.State) *sim.Action {
		what := fmt.Sprintf("%s event %d", ab.name, len(steps)+1)
		if probe != nil {
			probe(what, fast, s)
		}
		act, ref := fast.Schedule(s), fresh.Schedule(s)
		if (act == nil) != (ref == nil) || (act != nil && *act != *ref) {
			t.Fatalf("%s: cached path chose %+v, NoCache %+v", what, act, ref)
		}
		if act != nil {
			// The decision's embeddings and candidates are still in the
			// agent's buffers; a greedy re-decide reads the node distribution
			// off them without touching the random stream.
			req := policy.Request{Cands: fast.cands, MinLimits: fast.minLimits, ClassOKPer: fast.classOKs, ClassMem: cfg.ClassMem, Greedy: true}
			var ent float64
			for _, p := range fast.Pol.DecideInference(&fast.emb, req, nil, &sc).NodeProbs {
				ent -= p * math.Log(p)
			}
			entropies = append(entropies, ent)
			sc.Reset()
		}
		return act
	})
	rng := rand.New(rand.NewSource(int64(80 + ai)))
	jobs := workload.Poisson(rng, 8, workload.IATForLoad(0.7, 8))
	if res := sim.New(simCfg, jobs, run, rng).Run(); res.Unfinished != 0 || res.Deadlock || len(steps) < 20 {
		t.Fatalf("%s: run did not complete (%d decisions, %d unfinished)", ab.name, len(steps), res.Unfinished)
	}
	return fast, steps, entropies
}

// TestExactReusesEveryAblation is the property test behind the decide path's
// exact reuses. Over a noisy randomised run of every ablation it checks, at
// every scheduling event, that the global summary summed from cached FGlob
// rows equals GlobalInference over the job matrix and the tracked replay
// forward, and (recordedRun) that the cached path samples the same action as
// NoCache — bit for bit, sampling on.
func TestExactReusesEveryAblation(t *testing.T) {
	for ai := range ablations {
		recordedRun(t, ai, func(what string, fast *Agent, s *sim.State) {
			if fast.GNN == nil {
				return
			}
			emb := fast.embedInference(s)
			var sc nn.Scratch
			sameBits(t, what+": cached-FGlob global vs GlobalInference", emb.Global.Data, fast.GNN.GlobalInference(emb.Jobs, &sc).Data)
			_, global := trackedEmbed(fast, s)
			sameBits(t, what+": cached-FGlob global vs tracked", emb.Global.Data, global.Data)
		})
	}
}

// TestSharedPrefixHeadsMatchRowBuilt compares DecideInference's shared-prefix
// limit and class heads against the replay's row-built ones on random
// embeddings directly, for every head layout, including the floor that
// leaves a single admissible limit: the one-step replay must rebuild the
// log-probability the action was sampled with, bit for bit.
func TestSharedPrefixHeadsMatchRowBuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, pc := range []policy.Config{
		{EmbedDim: 8, Hidden: []int{16, 8}, NumLimits: 50},
		{EmbedDim: 8, Hidden: []int{16, 8}, NumLimits: 50, StageLevelLimits: true},
		{EmbedDim: 8, Hidden: []int{16, 8}, NumLimits: 50, NoLimitInput: true},
		{EmbedDim: 5, Hidden: []int{7}, NumLimits: 9, NumClasses: 3, StageLevelLimits: true},
	} {
		p := policy.New(pc, rng)
		for trial := 0; trial < 50; trial++ {
			d := pc.EmbedDim
			emb := &gnn.Embeddings{Jobs: randMat(rng, 3, d), Global: randMat(rng, 1, d)}
			req := policy.Request{ClassMem: []float64{0.3, 0.6, 1}}
			for ji := 0; ji < 3; ji++ {
				emb.Nodes = append(emb.Nodes, randMat(rng, 4, d))
				for ni := 0; ni < 4; ni++ {
					req.Cands = append(req.Cands, policy.Candidate{JobIdx: ji, NodeIdx: ni})
					req.MinLimits = append(req.MinLimits, 1+rng.Intn(pc.NumLimits+2))
					req.ClassOKPer = append(req.ClassOKPer, []bool{rng.Intn(2) == 0, true, rng.Intn(2) == 0})
				}
			}
			var s nn.Scratch
			got := p.DecideInference(emb, req, rng, &s)
			_, vals := p.ReplayLoss(nn.ConcatRows(emb.Nodes...), []int{0, 4, 8}, emb.Jobs, emb.Global, req.ClassMem, []policy.ReplayStep{{
				Gids: []int{0, 1, 2}, Cands: req.Cands, MinLimits: req.MinLimits, ClassOKs: req.ClassOKPer,
				Choice: got.Choice, Limit: got.Limit, Class: got.Class,
			}})
			if math.Float64bits(vals[0].LogProb) != math.Float64bits(got.LogProb) {
				t.Fatalf("%+v trial %d: action (%d,%d,%d) sampled with log-prob %v, row-built heads give %v", pc, trial,
					got.Choice, got.Limit, got.Class, got.LogProb, vals[0].LogProb)
			}
		}
	}
}

func randMat(rng *rand.Rand, rows, cols int) *nn.Tensor {
	m := nn.Zeros(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// TestRecycledEntryNeverAliases cycles the free-executor count through more
// keys than a job's entry set holds, so every decision past the first lap
// recycles an evicted entry's buffers, with Record off and on. Embeddings
// must equal the NoCache reference at every step, and a *gnn.Graph already
// handed to a recorder must never change after its entry is evicted.
func TestRecycledEntryNeverAliases(t *testing.T) {
	for _, record := range []bool{false, true} {
		cached := New(DefaultConfig(40), rand.New(rand.NewSource(13)))
		cached.Greedy = true
		ref := cached.Clone(rand.New(rand.NewSource(1)))
		ref.Greedy, ref.NoCache = true, true

		type kept struct {
			gr    *gnn.Graph
			feats []float64
		}
		var handed []kept
		if record {
			cached.Record = func(rs ReplayStep) {
				for _, gr := range rs.Graphs {
					handed = append(handed, kept{gr, append([]float64(nil), gr.Feats.Data...)})
				}
			}
		}
		st := benchState(4, 40)
		pool := st.FreeExecutors
		const keys = maxEntriesPerJob + 4
		for step := 0; step < 3*keys; step++ {
			st.FreeExecutors = pool[:1+step%keys]
			got, want := cached.embedInference(st), ref.embedInference(st)
			what := fmt.Sprintf("record=%v step %d", record, step)
			for i := range st.Jobs {
				sameBits(t, what+": node embeddings", got.Nodes[i].Data, want.Nodes[i].Data)
			}
			sameBits(t, what+": job summaries", got.Jobs.Data, want.Jobs.Data)
			sameBits(t, what+": global summary", got.Global.Data, want.Global.Data)
			if a, b := cached.Schedule(st), ref.Schedule(st); *a != *b {
				t.Fatalf("%s: cached chose %+v, NoCache %+v", what, a, b)
			}
		}
		if record && len(handed) != 3*keys*len(st.Jobs) {
			t.Fatalf("recorder saw %d graphs, want %d", len(handed), 3*keys*len(st.Jobs))
		}
		for i, k := range handed {
			sameBits(t, fmt.Sprintf("graph %d handed to the recorder was mutated", i), k.gr.Feats.Data, k.feats)
		}
	}
}
