// Package core is the paper's primary contribution assembled: the Decima
// scheduling agent. It extracts the state observation of §6.1 from the
// simulator, embeds it with the graph neural network of §5.1, decodes the
// two-dimensional ⟨stage, parallelism limit⟩ actions of §5.2 (plus an
// executor class in the multi-resource setting of §7.3) through the policy
// network, and exposes everything behind sim.Scheduler so the same agent
// runs in training rollouts, evaluation, and the RPC scheduling service.
//
// Every decision takes one path — the inference forward (fused no-grad
// kernels plus the incremental per-job embedding cache of cache.go),
// whether it serves, evaluates or rolls out a training episode. Training
// takes its gradient afterwards: with Record set each decision leaves a
// replay step, and ReplayLoss (replay.go) rebuilds an episode's decisions in
// one batched tracked forward. The two are each other's reference: the
// replay must reproduce, bit for bit, the log-probability every action was
// sampled with.
package core

import (
	"math/rand"
	"sync/atomic"

	"repro/internal/gnn"
	"repro/internal/nn"
	"repro/internal/policy"
	"repro/internal/sim"
)

// baseFeatures is the number of per-node features of §6.1: remaining
// tasks, mean task duration, executors on the job, free executors, a
// locality flag, and remaining stage work.
const baseFeatures = 6

// Config parameterises the agent and its ablations.
type Config struct {
	// NumLimits is the number of discrete parallelism levels; use the
	// cluster's executor count.
	NumLimits int
	// ClassMem lists executor-class memory sizes; empty disables the class
	// head (single-resource setting).
	ClassMem []float64
	// EmbedDim and Hidden size the GNN and policy networks.
	EmbedDim int
	Hidden   []int
	// NoGraphEmbedding ablates the GNN: raw node features feed the score
	// functions directly (Fig. 14, "w/o graph embedding").
	NoGraphEmbedding bool
	// NoParallelismControl ablates the limit head: every action requests
	// all executors (Fig. 14, "w/o parallelism control").
	NoParallelismControl bool
	// NoTaskDurations zeroes duration-derived features (Appendix J,
	// incomplete information).
	NoTaskDurations bool
	// UseIATFeature appends the workload's mean interarrival time as a
	// state feature (Table 2, "with interarrival time hints").
	UseIATFeature bool
	// IATHint is the value of that feature, in seconds.
	IATHint float64
	// StageLevelLimits and NoLimitInput select the alternative action
	// encodings of Fig. 15a.
	StageLevelLimits bool
	NoLimitInput     bool
	// SingleLevelGNN ablates the two-level aggregation (Appendix E).
	SingleLevelGNN bool
}

// DefaultConfig returns the standard agent configuration for a cluster of
// the given size.
func DefaultConfig(numExecutors int) Config {
	return Config{NumLimits: numExecutors, EmbedDim: 8, Hidden: []int{16, 8}}
}

// FeatDim returns the node feature dimensionality implied by the config.
func (c Config) FeatDim() int {
	d := baseFeatures
	if c.UseIATFeature {
		d++
	}
	return d
}

// Model is what a decision reads: the configuration and the two networks.
// Runners share one Model by pointer, so a shared model is never written: a
// new parameter set is a new Model, installed with Agent.Install.
type Model struct {
	Cfg Config
	GNN *gnn.GNN
	Pol *policy.Policy
}

// Agent is the Decima scheduler: a Model plus what one run of decisions owns
// (scratch, embedding cache, RNG, recorder).
type Agent struct {
	// Model is the one the agent decides with: at the top of every decision,
	// whatever the slot shared with its runners (and its origin) holds.
	*Model
	shared *atomic.Pointer[Model]

	// Greedy switches from sampling (training) to argmax (evaluation).
	Greedy bool
	// NoCache disables the incremental embedding cache (every decision
	// re-embeds every job). Results are bit-identical with the cache on or
	// off; the switch exists for the equivalence tests and benchmarks that
	// prove it.
	NoCache bool
	// Record, when set, receives a replay record for every decision.
	// Training rolls episodes out with Record set, then rebuilds the
	// gradient graph from the records (see replay.go). Every
	// slice of the record (Graphs, Cands, MinLimits, ClassOKs and its rows)
	// aliases agent-owned scratch that the next decision overwrites — a
	// recorder that retains the step must copy them; the *gnn.Graph values
	// themselves are stable, never mutated, and shared across steps whenever
	// a job's cache key was unchanged.
	Record func(ReplayStep)

	rng *rand.Rand

	// Fast-path state: the scratch arena backing one decision's tensors and
	// the per-job embedding cache (see cache.go). Private to the agent, so
	// concurrent agents (serving runners, parallel evaluation workers) never
	// share mutable state. emb and recGraphs are the per-decision
	// embeddings value and the graph list handed to Record; the remaining
	// slices are the candidate set candidates() fills. All are reused across
	// decisions, so a warm decision allocates only its returned Action.
	scratch   nn.Scratch
	cache     map[*sim.JobState]*jobCache
	embedPass uint64
	emb       gnn.Embeddings
	recGraphs []*gnn.Graph
	cands     []policy.Candidate
	stages    []*sim.StageState
	minLimits []int
	classOKs  [][]bool // rows of classOK, one per candidate (multi-resource)
	classOK   []bool
}

// New builds an agent with freshly initialised networks, sampling from rng.
func New(cfg Config, rng *rand.Rand) *Agent {
	m := NewModel(cfg, rng)
	a := &Agent{Model: m, shared: new(atomic.Pointer[Model]), rng: rng}
	a.shared.Store(m)
	return a
}

// NewModel builds freshly initialised networks for cfg, drawing the initial
// weights from rng.
func NewModel(cfg Config, rng *rand.Rand) *Model {
	if cfg.EmbedDim == 0 {
		cfg.EmbedDim = 8
	}
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = []int{16, 8}
	}
	embedDim := cfg.EmbedDim
	if cfg.NoGraphEmbedding {
		// Raw features feed the score functions directly, so the policy's
		// "embedding" dimensionality is the feature dimensionality.
		embedDim = cfg.FeatDim()
	}
	m := &Model{Cfg: cfg}
	if !cfg.NoGraphEmbedding {
		m.GNN = gnn.New(gnn.Config{
			FeatDim:     cfg.FeatDim(),
			EmbedDim:    cfg.EmbedDim,
			Hidden:      cfg.Hidden,
			SingleLevel: cfg.SingleLevelGNN,
		}, rng)
	}
	m.Pol = policy.New(policy.Config{
		EmbedDim:         embedDim,
		Hidden:           cfg.Hidden,
		NumLimits:        cfg.NumLimits,
		NumClasses:       len(cfg.ClassMem),
		NoLimitInput:     cfg.NoLimitInput,
		StageLevelLimits: cfg.StageLevelLimits,
	}, rng)
	return m
}

// Params returns all trainable tensors in a stable order.
func (m *Model) Params() []*nn.Tensor {
	var ps []*nn.Tensor
	if m.GNN != nil {
		ps = append(ps, m.GNN.Params()...)
	}
	return append(ps, m.Pol.Params()...)
}

// Clone returns an agent with a deep copy of the model, sharing nothing with
// the receiver: what a trainer writes gradients and optimizer steps into. It
// samples from rng, which first draws the discarded initial weights, and
// starts with a nil Record. Serving shares the model instead (Runner).
func (a *Agent) Clone(rng *rand.Rand) *Agent {
	b := New(a.Cfg, rng)
	nn.CopyParams(b.Params(), a.Params())
	b.Greedy = a.Greedy
	b.NoCache = a.NoCache
	return b
}

// Runner returns an agent that shares the receiver's model slot and owns its
// scratch, embedding cache and RNG (rng). It copies Greedy and NoCache and
// starts with a nil Record.
func (a *Agent) Runner(rng *rand.Rand) *Agent {
	return &Agent{Model: a.shared.Load(), shared: a.shared, rng: rng, Greedy: a.Greedy, NoCache: a.NoCache}
}

// Install stores m, never to be written again, into the slot the agent shares
// with its runners. Each adopts it at its next decision and re-embeds from a
// cold cache. It must not race the receiver's own decisions.
func (a *Agent) Install(m *Model) {
	a.Model = m
	a.shared.Store(m)
}

// Decide implements the unified scheduler contract of internal/scheduler:
// one invocation produces one ⟨stage, limit(, class)⟩ action. A local
// decision cannot fail, so the error is always nil; the slot exists so the
// agent is interchangeable with remote (RPC-backed) schedulers.
func (a *Agent) Decide(s *sim.State) (*sim.Action, error) { return a.Schedule(s), nil }

// Reset implements the unified scheduler contract: it drops the embedding
// cache and the per-decision buffers' contents, releasing every reference to
// the last run's simulator state (jobs, stages, DAGs, cached embeddings,
// recorded graphs). The model, greediness and the sampling RNG are untouched.
// Callers that keep an agent alive after a rollout finishes (e.g.
// rl.Evaluate) call this so a finished run's memory does not linger until
// the next decision. A caller's correctness never depends on it: entries are
// keyed by *sim.JobState pointer, so a new run can never hit a stale entry.
func (a *Agent) Reset() {
	a.cache = nil
	a.emb, a.recGraphs, a.stages = gnn.Embeddings{}, nil, nil
}

// RNG returns the RNG the agent samples actions from.
func (a *Agent) RNG() *rand.Rand { return a.rng }

// SetRNG replaces the RNG the agent samples actions from. Rollout workers
// install a deterministically seeded RNG per episode so action sampling is
// reproducible regardless of how episodes are spread over workers.
func (a *Agent) SetRNG(rng *rand.Rand) { a.rng = rng }

// Save writes the agent's parameters to a file.
func (a *Agent) Save(path string) error { return nn.SaveParamsFile(path, a.Params()) }

// Load reads parameters written by Save.
func (a *Agent) Load(path string) error { return nn.LoadParamsFile(path, a.Params()) }

// featureKeyInputs returns the only cluster-wide (non-job-local) inputs of a
// job's feature matrix: the free-executor count, the total pool size, and
// the locality flag. Everything else fillFeatures reads is job-local state
// covered by sim.JobState.Version, so (Version, freeTotal, total, local) is
// a complete cache key for per-job embeddings. The features and the cache
// key are both built from this single definition so the key cannot silently
// diverge from the features. The pool size was a per-run constant before
// failure dynamics; under executor churn it varies mid-run, so it must be
// part of the key.
func featureKeyInputs(s *sim.State, j *sim.JobState) (freeTotal, total int, local float64) {
	freeTotal = len(s.FreeExecutors)
	total = s.TotalExecutors
	for _, e := range s.FreeExecutors {
		if e.LocalTo(j) {
			local = 1
			break
		}
	}
	return freeTotal, total, local
}

// fillFeatures writes job j's §6.1 feature matrix into f
// (len(j.Stages)×FeatDim) from the job's own state and the featureKeyInputs
// values.
func (a *Agent) fillFeatures(f *nn.Tensor, j *sim.JobState, freeTotal, total int, local float64) {
	d := f.Cols
	for i, st := range j.Stages {
		remaining := float64(st.Stage.NumTasks - st.TasksDone)
		dur := st.Stage.TaskDuration
		work := st.RemainingWork()
		if a.Cfg.NoTaskDurations {
			dur, work = 0, 0
		}
		row := f.Data[i*d : (i+1)*d]
		row[0] = remaining / 100
		row[1] = dur / 10
		row[2] = float64(j.Executors) / float64(maxInt(a.Cfg.NumLimits, 1))
		row[3] = float64(freeTotal) / float64(maxInt(total, 1))
		row[4] = local
		row[5] = work / 1000
		if a.Cfg.UseIATFeature {
			row[6] = a.Cfg.IATHint / 100
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// candidates enumerates the schedulable nodes of s — with their per-node
// parallelism floors and (multi-resource) class masks — exactly as the
// policy scores them, into the agent's reused cands/stages/minLimits/classOKs
// buffers.
func (a *Agent) candidates(s *sim.State) {
	a.cands, a.stages, a.minLimits = a.cands[:0], a.stages[:0], a.minLimits[:0]
	a.classOKs, a.classOK = a.classOKs[:0], a.classOK[:0]
	nc := len(a.Cfg.ClassMem)
	for ji, j := range s.Jobs {
		for ni, st := range j.Stages {
			if !st.Runnable() || s.FreeCount(st) == 0 {
				continue
			}
			a.cands = append(a.cands, policy.Candidate{JobIdx: ji, NodeIdx: ni})
			a.stages = append(a.stages, st)
			a.minLimits = append(a.minLimits, j.Executors+1)
			if nc > 1 {
				lo := len(a.classOK)
				for c := 0; c < nc; c++ { // append(make) allocates under -race
					a.classOK = append(a.classOK, false)
				}
				for _, e := range s.FreeExecutors {
					if e.Mem >= st.Stage.MemReq {
						a.classOK[lo+e.Class] = true
					}
				}
			}
		}
	}
	if nc > 1 {
		for i := range a.cands {
			a.classOKs = append(a.classOKs, a.classOK[i*nc:(i+1)*nc:(i+1)*nc])
		}
	}
}

// Schedule implements sim.Scheduler: one invocation produces one
// ⟨stage, limit(, class)⟩ action.
func (a *Agent) Schedule(s *sim.State) *sim.Action {
	if m := a.shared.Load(); m != a.Model {
		a.Model = m
		a.Reset()
	}
	a.candidates(s)
	if len(a.cands) == 0 {
		return nil
	}
	req := policy.Request{
		Cands:     a.cands,
		MinLimits: a.minLimits,
		ClassMem:  a.Cfg.ClassMem,
		Greedy:    a.Greedy,
	}
	var classOKs [][]bool // nil without the class head, as replay expects
	if len(a.classOKs) > 0 {
		classOKs = a.classOKs
		req.ClassOKPer = classOKs
	}
	// No gradient is taken from a decision *now*: the forwards are fused and
	// no-grad, and per-job embeddings come from the cache. When Record is
	// set, the observation, the sampled action and its log-probability are
	// captured so training can rebuild the gradient graph in a batched replay.
	dec := a.Pol.DecideInference(a.embedInference(s), req, a.rng, &a.scratch)
	if a.Record != nil {
		a.Record(ReplayStep{
			Graphs:     a.recGraphs,
			Cands:      a.cands,
			MinLimits:  a.minLimits,
			ClassOKs:   classOKs,
			Choice:     dec.Choice,
			Limit:      dec.Limit,
			Class:      dec.Class,
			LogProb:    dec.LogProb,
			Time:       s.Time,
			JobSeconds: s.JobSeconds,
			NumJobs:    len(s.Jobs),
		})
	}
	limit := dec.Limit
	if a.Cfg.NoParallelismControl {
		limit = s.TotalExecutors
	}
	return &sim.Action{Stage: a.stages[dec.Choice], Limit: limit, Class: dec.Class}
}
