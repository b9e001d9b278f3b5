package rl

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/workload"
)

// rolloutTask describes one episode to collect: the arrival sequence to
// replay, the sampled horizon, and the seed for every random draw the
// episode makes (action sampling and simulator noise share one stream).
// All seeds are derived on the trainer's goroutine in a fixed order, so the
// set of tasks — and therefore every episode — is identical for any worker
// count.
type rolloutTask struct {
	jobs    []*dag.Job
	horizon float64
	seed    int64
}

// worker owns one private agent clone plus the pooled episode storage for
// the episodes it collects. A worker runs its episodes strictly
// sequentially; parallelism comes from running workers side by side. The
// worker that collects an episode also replays it for the backward pass, so
// the pooled record buffers never cross goroutines.
type worker struct {
	idx   int
	nw    int // pool size, for mapping episode index → local slot
	agent *core.Agent
	eps   []*episode // reusable episode storage, one per local slot
	// replay owns the tracked graph of the episode being replayed: tensors,
	// gradients of intermediates and plan indices, recycled by each backward.
	replay core.ReplayScratch
}

// newWorker clones the master agent for worker idx of an nw-sized pool. The
// clone's parameters are refreshed from the master at the start of every
// iteration, and its sampling RNG is replaced per episode, so the seed here
// is irrelevant to training results.
func newWorker(idx, nw int, master *core.Agent) *worker {
	return &worker{idx: idx, nw: nw, agent: master.Clone(rand.New(rand.NewSource(int64(idx))))}
}

// episodeBuf returns the worker's pooled episode storage for global episode
// index i, reset for reuse. Index i maps to local slot i/nw because fanOut
// hands worker w the indices congruent to w.idx modulo nw.
func (w *worker) episodeBuf(i int) *episode {
	slot := i / w.nw
	for len(w.eps) <= slot {
		w.eps = append(w.eps, &episode{worker: -1})
	}
	ep := w.eps[slot]
	ep.reset()
	ep.worker = w.idx
	return ep
}

// rollout collects one episode on the worker's private agent into pooled
// storage.
func (w *worker) rollout(obj Objective, i int, tk rolloutTask, simCfg sim.Config) *episode {
	return runEpisode(w.agent, obj, tk, simCfg, w.episodeBuf(i))
}

// runEpisode rolls out one episode on the given agent, which must not be in
// use by any other goroutine, writing into ep's pooled storage. The rollout
// records one ReplayStep per decision; no autograd graph is built until the
// episode is replayed for its backward pass. The agent's recorder and RNG
// are restored before returning. One RNG drives both action sampling and
// simulator noise, so the episode is a pure function of (parameters, task,
// objective).
func runEpisode(agent *core.Agent, obj Objective, tk rolloutTask, simCfg sim.Config, ep *episode) *episode {
	prevRec, prevRNG := agent.Record, agent.RNG()
	defer func() {
		agent.Record = prevRec
		agent.SetRNG(prevRNG)
		// Drop the episode's embedding cache: its pointer keys can never hit
		// again (the next episode builds fresh JobStates) and the entries
		// pin the finished run's jobs and recorded graphs.
		agent.Reset()
	}()
	rng := rand.New(rand.NewSource(tk.seed))
	agent.SetRNG(rng)
	agent.Record = func(rs core.ReplayStep) {
		// The record's slices alias agent scratch; carve stable copies out
		// of the episode's pooled arena.
		ep.steps = append(ep.steps, ep.arena.Retain(rs))
	}
	ep.result = sim.New(simCfg, workload.CloneAll(tk.jobs), agent, rng).RunUntil(tk.horizon)
	computeReturns(obj, ep)
	return ep
}

// backward replays one of this worker's episodes — rebuilding the tracked
// graph the rollout skipped — runs one backward pass over the episode's
// REINFORCE loss, and snapshots the resulting per-episode gradient into
// pooled storage. It also counts the steps whose replayed log-probability
// is not bit-identical to the recorded one (IterStats.LogProbMismatches).
// The per-step weights come from LossWeights. The graph lives on the
// worker's replay scratch and is gone with the next backward; what the
// trainer reads afterwards (entVals, grads) is copied out here.
func (w *worker) backward(ep *episode, std, scale, entropyWeight float64) {
	ep.mismatches = 0
	n := len(ep.steps)
	if n == 0 {
		return
	}
	ep.wLogp, ep.wEnt = LossWeights(ep.wLogp, ep.wEnt, ep.advs, std, scale, entropyWeight)
	params := w.agent.Params()
	nn.ZeroGrads(params)
	loss, vals := w.agent.ReplayLoss(&w.replay, ep.steps, ep.wLogp, ep.wEnt)
	loss.Backward(1)
	ep.entVals = resizeF(ep.entVals, n)
	for k, v := range vals {
		ep.entVals[k] = v.Entropy
		if math.Float64bits(v.LogProb) != math.Float64bits(ep.steps[k].LogProb) {
			ep.mismatches++
		}
	}
	ep.grads = nn.CloneGradsInto(ep.grads, params)
	nn.ZeroGrads(params)
}

// resizeF returns buf resized to n, reusing capacity.
func resizeF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
