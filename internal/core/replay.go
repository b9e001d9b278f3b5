package core

import (
	"repro/internal/gnn"
	"repro/internal/nn"
	"repro/internal/policy"
)

// The training fast path's episode replay.
//
// Training rollouts run on the inference path like every other decision (no
// autograd graph, fused forwards, incremental embedding cache) and record,
// per decision, only what the backward pass needs to build the tracked
// computation later: the observed per-job graph snapshots, the candidate set
// and masks, and the sampled action — plus the log-probability it was sampled
// with, which the replay must reproduce bit for bit. That equality, checked
// at every step of every ablation, is what licenses keeping the two forwards
// as separate code.
//
// The replay dedupes graph observations by pointer: the recorder hands out
// one *gnn.Graph per distinct (job, Version, freeTotal, local) observation
// (riding on the embedding cache), so a job untouched across many decisions
// is embedded once per episode during replay instead of once per decision —
// the same sharing that makes the inference cache fast, now applied to the
// gradient graph, where it is equally exact (the shared subgraph's gradient
// accumulates over all its uses).

// ReplayStep records one decision for training replay. As handed
// to Agent.Record every slice aliases agent scratch that the next decision
// overwrites; a recorder that keeps the step copies them with
// StepArena.Retain.
type ReplayStep struct {
	// Graphs holds the per-job observation at decision time, indexed like
	// the observed State.Jobs. Steps share *gnn.Graph pointers whenever a
	// job's cache key was unchanged between decisions.
	Graphs []*gnn.Graph
	// Cands, MinLimits and ClassOKs are the policy request's candidate set
	// and masks, exactly as scored.
	Cands     []policy.Candidate
	MinLimits []int
	ClassOKs  [][]bool
	// Choice, Limit and Class pin the sampled action (Limit before any
	// NoParallelismControl override; Class is -1 without the class head).
	Choice int
	Limit  int
	Class  int
	// LogProb is log π(a|s) of that action as the inference path computed
	// it (policy.Decision.LogProb).
	LogProb float64
	// Time is the simulation time t_k of the action, JobSeconds the ∫#jobs dt
	// integral at decision time (consecutive differences give the
	// −(t_k − t_{k−1})·J penalty of §5.3) and NumJobs the number of jobs in
	// the system.
	Time       float64
	JobSeconds float64
	NumJobs    int
}

// StepArena is append-only storage for the slices of retained replay steps:
// a recorder that keeps many steps (an episode) pools them here and Resets
// between episodes; one that keeps steps individually retains each into a
// zero StepArena of its own. Growing a pool moves it to a new backing array;
// steps retained earlier keep the old one, which is never written again.
type StepArena struct {
	graphs []*gnn.Graph
	cands  []policy.Candidate
	ints   []int
	bools  []bool
	rows   [][]bool
}

// Retain returns rs with every slice copied into the arena.
func (ar *StepArena) Retain(rs ReplayStep) ReplayStep {
	ar.graphs, rs.Graphs = appendTail(ar.graphs, rs.Graphs)
	ar.cands, rs.Cands = appendTail(ar.cands, rs.Cands)
	ar.ints, rs.MinLimits = appendTail(ar.ints, rs.MinLimits)
	if rs.ClassOKs != nil {
		lo := len(ar.rows)
		for _, ok := range rs.ClassOKs {
			ar.bools, ok = appendTail(ar.bools, ok)
			ar.rows = append(ar.rows, ok)
		}
		rs.ClassOKs = ar.rows[lo:len(ar.rows):len(ar.rows)]
	}
	return rs
}

// Reset recycles the arena; steps retained from it become invalid.
func (ar *StepArena) Reset() {
	ar.graphs, ar.cands, ar.ints, ar.bools, ar.rows = ar.graphs[:0], ar.cands[:0], ar.ints[:0], ar.bools[:0], ar.rows[:0]
}

// appendTail appends src to pool and returns the grown pool plus the
// capacity-clipped tail that holds the copy.
func appendTail[T any](pool, src []T) (grown, tail []T) {
	lo := len(pool)
	pool = append(pool, src...)
	return pool, pool[lo:len(pool):len(pool)]
}

// ReplayScratch is the reusable storage of one replay at a time: the nn.Tape
// that owns every tensor, gradient buffer and index list of the tracked
// computation, plus the plan bookkeeping that is not tensor-shaped. A rollout
// worker owns one and hands it to every ReplayLoss, which Resets it on entry,
// so a warm replay allocates next to nothing. The loss tensor a ReplayLoss
// returned dies with the next one on the same scratch: the caller runs
// Backward and copies out what it keeps first (parameter gradients live on
// the parameters and are not affected). The zero value is ready to use.
type ReplayScratch struct {
	// Tape owns the replayed graph.
	Tape nn.Tape

	ids    map[*gnn.Graph]int
	unique []*gnn.Graph
	psteps []policy.ReplayStep
}

// Reset recycles everything the previous replay built; its tensors and
// buffers are invalid from here on (and overwritten by the next replay).
func (rs *ReplayScratch) Reset() {
	rs.Tape.Reset()
	clear(rs.ids)
	clear(rs.unique) // drop the finished episode's graphs
	rs.unique = rs.unique[:0]
}

// plan resolves an episode's records into replay coordinates: the
// deduplicated graph list (first-seen order, so the plan is identical for
// any worker count) and per-step policy views.
func (rs *ReplayScratch) plan(steps []ReplayStep, wLogp, wEnt []float64) (unique []*gnn.Graph, flat, seg []int, psteps []policy.ReplayStep) {
	if rs.ids == nil {
		rs.ids = make(map[*gnn.Graph]int)
	}
	nRefs := 0
	for k := range steps {
		nRefs += len(steps[k].Graphs)
	}
	// gids of all steps, flat: flat is every step's Gids back to back.
	flat, seg = rs.Tape.Ints(nRefs)[:0], rs.Tape.Ints(nRefs)[:0]
	if cap(rs.psteps) < len(steps) {
		rs.psteps = make([]policy.ReplayStep, len(steps))
	}
	psteps = rs.psteps[:len(steps)]
	for k := range steps {
		st := &steps[k]
		lo := len(flat)
		for _, gr := range st.Graphs {
			id, ok := rs.ids[gr]
			if !ok {
				id = len(rs.unique)
				rs.ids[gr] = id
				rs.unique = append(rs.unique, gr)
			}
			flat = append(flat, id)
			seg = append(seg, k)
		}
		psteps[k] = policy.ReplayStep{
			Gids:      flat[lo:len(flat):len(flat)],
			Cands:     st.Cands,
			MinLimits: st.MinLimits,
			ClassOKs:  st.ClassOKs,
			Choice:    st.Choice,
			Limit:     st.Limit,
			Class:     st.Class,
			WLogp:     wLogp[k],
			WEnt:      wEnt[k],
		}
	}
	return rs.unique, flat, seg, psteps
}

// ReplayLoss rebuilds the tracked computation for an episode's recorded
// decisions in one batched forward — a multi-graph level-batched GNN pass
// over the episode's distinct job observations, batched per-decision global
// summaries, and stacked policy heads — and returns the differentiable
// REINFORCE loss Σ_k wLogp[k]·logπ(a_k) + wEnt[k]·H_k together with each
// step's (log-prob, entropy) values. The caller seeds Backward(1) on the
// loss exactly once. The computation is built on rs, which is Reset first,
// and is valid until rs is Reset again; nil replays on a scratch of its own
// that the garbage collector reclaims.
func (a *Agent) ReplayLoss(rs *ReplayScratch, steps []ReplayStep, wLogp, wEnt []float64) (*nn.Tensor, []policy.StepVals) {
	if rs == nil {
		rs = new(ReplayScratch)
	}
	rs.Reset()
	tp := &rs.Tape
	unique, flat, seg, psteps := rs.plan(steps, wLogp, wEnt)
	if a.GNN != nil {
		batch := a.GNN.ForwardBatch(tp, unique)
		globals := a.GNN.GlobalsBatch(batch.Jobs, flat, seg, len(steps))
		return a.Pol.ReplayLoss(batch.Nodes, batch.Off, batch.Jobs, globals, a.Cfg.ClassMem, psteps)
	}
	// GNN ablation: raw features stand in for node embeddings and the job
	// and global summaries are zero, exactly as in embedInference.
	d := a.Cfg.FeatDim()
	off := tp.Ints(len(unique))
	total := 0
	for i, gr := range unique {
		off[i] = total
		total += gr.Feats.Rows
	}
	nodes := tp.Zeros(total, d)
	for i, gr := range unique {
		copy(nodes.Data[off[i]*d:], gr.Feats.Data)
	}
	return a.Pol.ReplayLoss(nodes, off, tp.Zeros(len(unique), d), tp.Zeros(len(steps), d), a.Cfg.ClassMem, psteps)
}
