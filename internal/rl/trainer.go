// Package rl implements Decima's training procedure (§5.3, Algorithm 1):
// REINFORCE policy gradients with
//
//   - input-dependent baselines — N episodes per iteration replay the same
//     job arrival sequence, and each step's baseline is the mean return of
//     the sibling episodes at the same wall-clock time, removing the
//     variance the stochastic arrival process injects into rewards;
//   - curriculum learning — episode horizons are drawn from an exponential
//     distribution whose mean grows each iteration, so early training sees
//     short, manageable job sequences (and the memoryless termination
//     prevents end-of-episode gaming);
//   - no average-reward shift: Appendix B's was measured to hurt and was
//     removed (docs/LEARNING.md).
//
// Every Trainer follows one recipe (the constants below), and internal/online
// makes its loss weights with the same JCTReturns, Normalization, LossWeights.
//
// Rollouts decide on the inference path like every other decision (no
// autograd graph, fused forwards, warm per-job embedding cache), recording a
// minimal replay record per decision, and the backward pass replays each
// episode once through a batched tracked forward that fuses all of the
// episode's decisions (see internal/core's replay and DESIGN.md, "The
// training fast path"). Replayed log-probabilities are bit-identical to the
// ones the rollout sampled with, and training remains bit-identical for any
// worker count.
package rl

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Objective selects the reward signal.
type Objective int

const (
	// ObjAvgJCT minimises average job completion time via the
	// −(t_k − t_{k−1})·J penalty (Little's law argument of §5.3).
	ObjAvgJCT Objective = iota
	// ObjMakespan minimises the completion time of the last job.
	ObjMakespan
)

// The training recipe every Trainer follows.
const (
	// learningRate is Adam's learning rate.
	learningRate = 3e-3
	// initialEntropyWeight scales the exploration bonus added to the
	// policy gradient at the first iteration; the weight is multiplied by
	// entropyDecay after every iteration.
	initialEntropyWeight = 0.2
	entropyDecay         = 0.999
	// initialHorizon is the starting mean of the exponential episode length
	// τ, in simulated seconds; horizonGrowth is added to it every iteration
	// (curriculum learning's ε), up to Config.MaxHorizon.
	initialHorizon = 200
	horizonGrowth  = 30
)

// Config parameterises training.
type Config struct {
	// EpisodesPerIter is N in Algorithm 1: episodes sharing one arrival
	// sequence per iteration (the paper uses 16 workers).
	EpisodesPerIter int
	// MaxHorizon caps the mean horizon.
	MaxHorizon float64
	// Objective selects the reward signal.
	Objective Objective
	// UnfixedSequences ablates the input-dependent baseline: each episode
	// of an iteration draws its own arrival sequence (Fig. 14,
	// "w/o variance reduction").
	UnfixedSequences bool
	// NoCurriculum ablates horizon growth: episodes always run to the max
	// horizon.
	NoCurriculum bool
	// Workers sets the rollout pool size: episodes (and their backward
	// passes) are spread over this many goroutines, each with a private
	// agent clone. Values ≤ 0 select one worker per available CPU
	// (runtime.GOMAXPROCS). Training results are bit-identical for a fixed
	// seed regardless of this setting. When Workers > 1 the JobSource is
	// still only ever called from the trainer's goroutine.
	Workers int
}

// DefaultConfig returns the training configuration every figure trains
// with, scaled for single-core runs.
func DefaultConfig() Config {
	return Config{
		EpisodesPerIter: 4,
		MaxHorizon:      10000,
		Objective:       ObjAvgJCT,
	}
}

// JobSource produces a job arrival sequence for one episode or iteration.
type JobSource func(rng *rand.Rand) []*dag.Job

// IterStats reports one training iteration.
type IterStats struct {
	// Iter is the iteration index.
	Iter int
	// MeanReturn is the mean episode return (total reward) across episodes.
	MeanReturn float64
	// MeanJCT is the mean JCT of jobs completed within episodes.
	MeanJCT float64
	// MeanSteps is the mean number of decisions per episode.
	MeanSteps float64
	// Horizon is the mean episode horizon used.
	Horizon float64
	// GradNorm is the pre-clip gradient norm.
	GradNorm float64
	// Entropy is the mean decision entropy.
	Entropy float64
	// LogProbMismatches counts the decisions whose replayed log π(a|s)
	// differs in any bit from the one the rollout recorded. The replay
	// rebuilds the inference path's arithmetic exactly, so this is 0;
	// anything else means training followed gradients of a different policy
	// than the one that acted.
	LogProbMismatches int
}

// Trainer trains a Decima agent.
type Trainer struct {
	Agent *core.Agent
	Cfg   Config

	opt           *nn.Adam
	rng           *rand.Rand
	eng           *engine
	horizon       float64
	entropyWeight float64
	iter          int
}

// NewTrainer builds a trainer around the agent.
func NewTrainer(agent *core.Agent, cfg Config, rng *rand.Rand) *Trainer {
	return &Trainer{
		Agent:         agent,
		Cfg:           cfg,
		opt:           nn.NewAdam(learningRate),
		rng:           rng,
		horizon:       initialHorizon,
		entropyWeight: initialEntropyWeight,
	}
}

// pool returns the rollout engine, (re)building it when Config.Workers
// changes between iterations.
func (t *Trainer) pool() *engine {
	n := resolveWorkers(t.Cfg.Workers)
	if t.eng == nil || len(t.eng.workers) != n {
		t.eng = newEngine(t.Agent, n)
	}
	return t.eng
}

// episode is one rollout's record. Every slice is pooled storage owned by
// the collecting worker and reused across iterations (reset, never
// reallocated once warm), so steady-state training allocates no episode
// bookkeeping.
type episode struct {
	steps   []core.ReplayStep // one replay record per decision
	arena   core.StepArena    // backs the steps' slices
	result  *sim.Result
	returns []float64   // R_k per step
	advs    []float64   // baseline-subtracted advantage per step
	wLogp   []float64   // per-step log-prob loss weights (backward scratch)
	wEnt    []float64   // per-step entropy loss weights (backward scratch)
	entVals []float64   // entropy values, filled by the replay
	grads   [][]float64 // per-parameter gradient contribution
	worker  int         // pool index of the worker that owns the storage
	// mismatches counts steps whose replayed LogProb bits differ from the
	// recorded ones, filled by the replay.
	mismatches int
}

// reset recycles the episode's pooled storage for a new rollout.
func (ep *episode) reset() {
	ep.steps = ep.steps[:0]
	ep.arena.Reset()
	ep.returns = ep.returns[:0]
	ep.advs = ep.advs[:0]
	ep.entVals = ep.entVals[:0]
	ep.result = nil
}

// rollout runs one sampled episode on the master agent. It is the serial
// reference path the parallel workers replicate; tests use it to inspect
// single episodes.
func (t *Trainer) rollout(jobs []*dag.Job, simCfg sim.Config, horizon float64, seed int64) *episode {
	return runEpisode(t.Agent, t.Cfg.Objective, rolloutTask{jobs: jobs, horizon: horizon, seed: seed}, simCfg, &episode{worker: -1})
}

// computeReturns derives per-step returns R_k from the recorded steps and
// the final simulator state into the episode's pooled returns buffer. It
// depends only on the episode and the objective, so workers can call it
// concurrently.
func computeReturns(obj Objective, ep *episode) {
	n := len(ep.steps)
	if obj == ObjAvgJCT || n == 0 {
		ep.returns = JCTReturns(ep.returns, ep.steps, ep.result.JobSeconds)
		return
	}
	finalT := math.Max(ep.result.Makespan, ep.steps[n-1].Time)
	ep.returns = resizeF(ep.returns, n)
	for k, s := range ep.steps {
		ep.returns[k] = -(finalT - s.Time)
	}
}

// JCTReturns writes the avg-JCT return of every step into dst, resized to
// len(steps): R_k = Σ_{k'≥k} −(JS_{k'+1} − JS_{k'}) = −(final − JS_k), where
// final is the job-seconds accrued by the episode's end (§5.3).
func JCTReturns(dst []float64, steps []core.ReplayStep, final float64) []float64 {
	dst = resizeF(dst, len(steps))
	for k := range steps {
		dst[k] = -(final - steps[k].JobSeconds)
	}
	return dst
}

// Normalization returns σ, the population standard deviation of the
// advantages pooled over every episode in advs (plus 1e-8; 1 for fewer than
// two), and the loss scale 1/N for their N steps (1 for none). Returns are
// job-seconds, so σ adapts the original fixed reward scale to any workload,
// and 1/N keeps the step size from growing as the curriculum grows episodes.
func Normalization(advs ...[]float64) (std, scale float64) {
	var n int
	var mean, sq float64
	for _, a := range advs {
		for _, v := range a {
			mean += v
		}
		n += len(a)
	}
	if n == 0 {
		return 1, 1
	}
	mean /= float64(n)
	for _, a := range advs {
		for _, v := range a {
			d := v - mean
			sq += d * d
		}
	}
	std = 1
	if n > 1 {
		std = math.Sqrt(sq/float64(n)) + 1e-8
	}
	return std, 1 / float64(n)
}

// LossWeights writes the per-step weights of an episode's REINFORCE loss,
// Σ_k wLogp[k]·log π(a_k|s_k) + wEnt[k]·H_k, into wLogp and wEnt (resized to
// len(advs)): wLogp[k] = −(advs[k]/std)·scale and wEnt[k] = −β·scale, with std
// and scale from Normalization and β the entropy weight.
func LossWeights(wLogp, wEnt, advs []float64, std, scale, beta float64) ([]float64, []float64) {
	wLogp, wEnt = resizeF(wLogp, len(advs)), resizeF(wEnt, len(advs))
	for k, a := range advs {
		wLogp[k] = -(a / std) * scale
		wEnt[k] = -beta * scale
	}
	return wLogp, wEnt
}

// baselineAt returns episode ep's return interpolated at time tt: the
// return of the last step at or before tt (step-function interpolation, as
// in the input-dependent baseline implementation).
func baselineAt(ep *episode, tt float64) float64 {
	if len(ep.steps) == 0 {
		return 0
	}
	// Binary search for the last step with Time ≤ tt.
	i := sort.Search(len(ep.steps), func(i int) bool { return ep.steps[i].Time > tt })
	if i == 0 {
		return ep.returns[0]
	}
	return ep.returns[i-1]
}

// testHookCollected, when a test sets it, sees every iteration's episodes
// between collection and replay.
var testHookCollected func([]*episode)

// Iteration runs one Algorithm-1 iteration: sample horizon and sequence,
// roll out N episodes across the worker pool on the inference path,
// compute input-dependent baselines, replay each episode through one
// batched tracked forward to accumulate its policy gradient, merge the
// gradients in episode order, and step Adam.
//
// The iteration is bit-for-bit deterministic for a fixed trainer seed
// regardless of Config.Workers: all randomness is derived up front on this
// goroutine, episodes are pure functions of their task, and gradients merge
// in episode-index order (see parallel.go).
func (t *Trainer) Iteration(src JobSource, simCfg sim.Config) IterStats {
	t.iter++
	horizon := t.horizon
	if t.Cfg.NoCurriculum {
		horizon = t.Cfg.MaxHorizon
	}
	tau := t.rng.ExpFloat64() * horizon

	// Rollout phase: derive every episode's task on this goroutine in a
	// fixed order, then fan the collection out over the worker pool.
	n := t.Cfg.EpisodesPerIter
	var shared []*dag.Job
	if !t.Cfg.UnfixedSequences {
		shared = src(rand.New(rand.NewSource(t.rng.Int63())))
	}
	tasks := make([]rolloutTask, n)
	for i := range tasks {
		jobs := shared
		if t.Cfg.UnfixedSequences {
			jobs = src(rand.New(rand.NewSource(t.rng.Int63())))
		}
		tasks[i] = rolloutTask{jobs: jobs, horizon: tau, seed: t.rng.Int63()}
	}
	eng := t.pool()
	eng.sync(t.Agent)
	episodes := eng.collect(t.Cfg.Objective, tasks, simCfg)
	if testHookCollected != nil {
		testHookCollected(episodes)
	}

	// Advantage pass: per-step advantages against the per-time
	// input-dependent baseline, in episode order.
	var sumReturn, sumSteps float64
	advs := make([][]float64, 0, n)
	for i, ep := range episodes {
		if len(ep.steps) == 0 {
			continue
		}
		sumReturn += ep.returns[0]
		sumSteps += float64(len(ep.steps))
		ep.advs = resizeF(ep.advs, len(ep.steps))
		for k := range ep.steps {
			tt := ep.steps[k].Time
			var b float64
			for j, other := range episodes {
				if j == i {
					continue
				}
				b += baselineAt(other, tt)
			}
			if n > 1 {
				b /= float64(n - 1)
			}
			ep.advs[k] = ep.returns[k] - b
		}
		advs = append(advs, ep.advs)
	}

	// Update phase: each episode is replayed on its owning worker — the
	// tracked graph the inference rollout skipped is rebuilt once, batched
	// across the episode's decisions — and the per-episode gradients are
	// merged in episode order on this goroutine.
	std, scale := Normalization(advs...)
	eng.backward(episodes, std, scale, t.entropyWeight)
	params := t.Agent.Params()
	nn.ZeroGrads(params)
	var sumEntropy float64
	var entropyCount, mismatches int
	for _, ep := range episodes {
		if len(ep.steps) == 0 {
			continue
		}
		nn.AccumulateGrads(params, ep.grads)
		for _, e := range ep.entVals {
			sumEntropy += e
		}
		entropyCount += len(ep.entVals)
		mismatches += ep.mismatches
	}
	grad := nn.ClipGradNorm(params, nn.GradClip)
	t.opt.Step(params)

	// Curriculum and entropy decay.
	t.horizon = math.Min(t.horizon+horizonGrowth, t.Cfg.MaxHorizon)
	t.entropyWeight *= entropyDecay

	stats := IterStats{
		Iter:              t.iter,
		MeanReturn:        sumReturn / float64(n),
		MeanSteps:         sumSteps / float64(n),
		Horizon:           horizon,
		GradNorm:          grad,
		LogProbMismatches: mismatches,
	}
	var jctSum float64
	var jctN int
	for _, ep := range episodes {
		for _, r := range ep.result.Completed {
			jctSum += r.JCT()
			jctN++
		}
	}
	if jctN > 0 {
		stats.MeanJCT = jctSum / float64(jctN)
	}
	if entropyCount > 0 {
		stats.Entropy = sumEntropy / float64(entropyCount)
	}
	return stats
}

// Train runs iters iterations, invoking onIter (if non-nil) after each.
func (t *Trainer) Train(iters int, src JobSource, simCfg sim.Config, onIter func(IterStats)) []IterStats {
	stats := make([]IterStats, 0, iters)
	for i := 0; i < iters; i++ {
		st := t.Iteration(src, simCfg)
		stats = append(stats, st)
		if onIter != nil {
			onIter(st)
		}
	}
	return stats
}

// Evaluate runs the agent greedily over the given sequences to completion
// and returns the mean average-JCT across sequences (and the mean
// makespan). The agent's Greedy setting is restored before returning.
func Evaluate(agent *core.Agent, seqs [][]*dag.Job, simCfg sim.Config, seed int64) (avgJCT, makespan float64) {
	prevGreedy := agent.Greedy
	agent.Greedy = true
	defer func() {
		agent.Greedy = prevGreedy
		// Drop references to the finished runs' jobs and embeddings rather
		// than holding them until the agent's next decision.
		agent.Reset()
	}()
	return EvaluateScheduler(func() sim.Scheduler { return agent }, seqs, simCfg, seed)
}

// Runs runs mk's scheduler over each sequence to completion, sequence i on
// its own copy of the jobs with its simulator seeded seed+i; mk must return a
// scheduler ready for a fresh run.
func Runs(mk func() sim.Scheduler, seqs [][]*dag.Job, simCfg sim.Config, seed int64) []*sim.Result {
	out := make([]*sim.Result, len(seqs))
	for i, jobs := range seqs {
		out[i] = sim.New(simCfg, workload.CloneAll(jobs), mk(), rand.New(rand.NewSource(seed+int64(i)))).Run()
	}
	return out
}

// EvaluateScheduler returns the mean average-JCT and the mean makespan of
// Runs(mk, seqs, simCfg, seed).
func EvaluateScheduler(mk func() sim.Scheduler, seqs [][]*dag.Job, simCfg sim.Config, seed int64) (avgJCT, makespan float64) {
	var jctSum, msSum float64
	for _, res := range Runs(mk, seqs, simCfg, seed) {
		jctSum += res.AvgJCT()
		msSum += res.Makespan
	}
	n := float64(len(seqs))
	return jctSum / n, msSum / n
}
