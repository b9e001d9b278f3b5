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
//   - the average-reward formulation — a moving average r̂ of per-step
//     penalties is subtracted to optimise time-average rather than total
//     reward (Appendix B).
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

// Config parameterises training.
type Config struct {
	// EpisodesPerIter is N in Algorithm 1: episodes sharing one arrival
	// sequence per iteration (the paper uses 16 workers).
	EpisodesPerIter int
	// LR is Adam's learning rate (paper: 1e-3).
	LR float64
	// EntropyWeight scales an exploration bonus added to the policy
	// gradient; decays by EntropyDecay each iteration.
	EntropyWeight float64
	// EntropyDecay multiplies EntropyWeight every iteration (e.g. 0.999).
	EntropyDecay float64
	// GradClip bounds the global gradient norm.
	GradClip float64
	// InitialHorizon is the starting mean of the exponential episode
	// length τ, in simulated seconds.
	InitialHorizon float64
	// HorizonGrowth is added to the mean horizon every iteration
	// (curriculum learning's ε).
	HorizonGrowth float64
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
	// DifferentialReward enables the average-reward formulation.
	DifferentialReward bool
	// Workers sets the rollout pool size: episodes (and their backward
	// passes) are spread over this many goroutines, each with a private
	// agent clone. Values ≤ 0 select one worker per available CPU
	// (runtime.GOMAXPROCS). Training results are bit-identical for a fixed
	// seed regardless of this setting. When Workers > 1 the JobSource is
	// still only ever called from the trainer's goroutine.
	Workers int
}

// DefaultConfig returns the training configuration used across the
// evaluation, scaled for single-core runs.
func DefaultConfig() Config {
	return Config{
		EpisodesPerIter:    4,
		LR:                 1e-3,
		EntropyWeight:      0.1,
		EntropyDecay:       0.995,
		GradClip:           10,
		InitialHorizon:     500,
		HorizonGrowth:      50,
		MaxHorizon:         20000,
		Objective:          ObjAvgJCT,
		DifferentialReward: true,
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
}

// Trainer trains a Decima agent.
type Trainer struct {
	Agent *core.Agent
	Cfg   Config

	opt     *nn.Adam
	rng     *rand.Rand
	eng     *engine
	horizon float64
	iter    int
	rbar    float64 // moving average of per-step reward
	rbarN   float64
}

// NewTrainer builds a trainer around the agent.
func NewTrainer(agent *core.Agent, cfg Config, rng *rand.Rand) *Trainer {
	return &Trainer{
		Agent:   agent,
		Cfg:     cfg,
		opt:     nn.NewAdam(cfg.LR),
		rng:     rng,
		horizon: cfg.InitialHorizon,
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
	return runEpisode(t.Agent, t.Cfg, t.rbar, rolloutTask{jobs: jobs, horizon: horizon, seed: seed}, simCfg, &episode{worker: -1})
}

// computeReturns derives per-step returns R_k from the recorded steps and
// the final simulator state into the episode's pooled returns buffer. It
// depends only on the episode, the config and the rbar moving average
// (frozen for the duration of an iteration), so workers can call it
// concurrently.
func computeReturns(cfg Config, rbar float64, ep *episode) {
	n := len(ep.steps)
	if n == 0 {
		ep.returns = ep.returns[:0]
		return
	}
	final := ep.result.JobSeconds
	finalT := ep.steps[n-1].Time
	if cfg.Objective == ObjMakespan {
		finalT = math.Max(ep.result.Makespan, finalT)
	}
	returns := resizeF(ep.returns, n)
	switch cfg.Objective {
	case ObjAvgJCT:
		// R_k = Σ_{k'≥k} −(JS_{k'+1} − JS_{k'}) = −(JS_final − JS_k).
		for k := range ep.steps {
			returns[k] = -(final - ep.steps[k].JobSeconds)
		}
	case ObjMakespan:
		for k := range ep.steps {
			returns[k] = -(finalT - ep.steps[k].Time)
		}
	}
	if cfg.DifferentialReward {
		// Subtract the moving-average per-step reward: R_k gains
		// +r̂·(T−k) since each of the remaining steps is shifted.
		for k := range returns {
			returns[k] += rbar * float64(n-k)
		}
	}
	ep.returns = returns
}

// updateRbar folds an episode's per-step rewards into the moving average.
func (t *Trainer) updateRbar(ep *episode) {
	n := len(ep.steps)
	if n == 0 {
		return
	}
	total := ep.returns[0]
	if t.Cfg.DifferentialReward {
		total -= t.rbar * float64(n) // undo the shift to recover raw return
	}
	perStep := total / float64(n)
	// Exponential moving average over ~100 episodes.
	const alpha = 0.01
	if t.rbarN == 0 {
		t.rbar = perStep
	} else {
		t.rbar = (1-alpha)*t.rbar + alpha*perStep
	}
	t.rbarN++
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
	episodes := eng.collect(t.Cfg, t.rbar, tasks, simCfg)

	// Advantage pass: per-step advantages against the per-time
	// input-dependent baseline, in episode order.
	var totalSteps int
	var sumReturn, sumSteps float64
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
		totalSteps += len(ep.steps)
	}
	// Normalise advantage scale: raw returns are job-seconds (hundreds to
	// millions depending on the workload), which would otherwise swamp the
	// gradient. The original implementation divides rewards by a fixed
	// reward scale; normalising by the batch standard deviation adapts that
	// scale to any workload automatically.
	var meanA, sqA float64
	for _, ep := range episodes {
		for _, a := range ep.advs {
			meanA += a
		}
	}
	if totalSteps > 0 {
		meanA /= float64(totalSteps)
	}
	for _, ep := range episodes {
		for _, a := range ep.advs {
			d := a - meanA
			sqA += d * d
		}
	}
	stdA := 1.0
	if totalSteps > 1 {
		stdA = math.Sqrt(sqA/float64(totalSteps)) + 1e-8
	}

	// Update phase: each episode is replayed on its owning worker — the
	// tracked graph the inference rollout skipped is rebuilt once, batched
	// across the episode's decisions — and the per-episode gradients are
	// merged in episode order on this goroutine. The loss is averaged over
	// the batch's steps (not episodes) so the effective step size does not
	// grow with episode length as the curriculum extends horizons.
	scale := 1.0
	if totalSteps > 0 {
		scale = 1 / float64(totalSteps)
	}
	eng.backward(episodes, stdA, scale, t.Cfg.EntropyWeight)
	params := t.Agent.Params()
	nn.ZeroGrads(params)
	var sumEntropy float64
	var entropyCount int
	for _, ep := range episodes {
		if len(ep.steps) == 0 {
			continue
		}
		nn.AccumulateGrads(params, ep.grads)
		for _, e := range ep.entVals {
			sumEntropy += e
		}
		entropyCount += len(ep.entVals)
	}
	grad := nn.ClipGradNorm(params, t.Cfg.GradClip)
	t.opt.Step(params)
	for _, ep := range episodes {
		t.updateRbar(ep)
	}

	// Curriculum and entropy decay.
	t.horizon = math.Min(t.horizon+t.Cfg.HorizonGrowth, t.Cfg.MaxHorizon)
	t.Cfg.EntropyWeight *= t.Cfg.EntropyDecay

	stats := IterStats{
		Iter:       t.iter,
		MeanReturn: sumReturn / float64(n),
		MeanSteps:  sumSteps / float64(n),
		Horizon:    horizon,
		GradNorm:   grad,
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

// EvaluateScheduler runs any scheduler over the given sequences to
// completion (sequence i's simulator seeded seed+i) and returns the mean
// average-JCT and the mean makespan; mk must return a scheduler ready for a
// fresh run.
func EvaluateScheduler(mk func() sim.Scheduler, seqs [][]*dag.Job, simCfg sim.Config, seed int64) (avgJCT, makespan float64) {
	var jctSum, msSum float64
	for i, jobs := range seqs {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		res := sim.New(simCfg, workload.CloneAll(jobs), mk(), rng).Run()
		jctSum += res.AvgJCT()
		msSum += res.Makespan
	}
	n := float64(len(seqs))
	return jctSum / n, msSum / n
}
