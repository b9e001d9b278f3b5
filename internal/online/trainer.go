// Package online closes the training↔serving loop: a background trainer
// that consumes recorded serving trajectories, applies the batched replay
// backward of internal/core, and periodically publishes updated parameter
// versions to the model registry for hot-swap into live sessions.
//
// The loop mirrors Decima's premise — the policy keeps learning from the
// traffic it schedules — with a deliberately simpler update than offline
// training (internal/rl): served episodes arrive one at a time from
// independent sessions, so there are no sibling rollouts to build the
// input-dependent baseline from; the per-episode mean return stands in as
// the baseline instead. Everything else is internal/rl's path (rl.JCTReturns,
// rl.Normalization, rl.LossWeights); episodes replay through
// core.Agent.ReplayLoss (one batched tracked forward per episode), and
// gradients are clipped and stepped with Adam.
//
// Determinism: the trainer has no randomness of its own. Given the same
// episodes in the same order, TrainOnce produces bit-identical parameters
// — the online-loop determinism test publishes a checkpoint after a seeded
// serve→record→train run and requires identical bytes across runs.
package online

import (
	"io"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/rl"
)

// The online trainer's hyperparameters: unlike rl's recipe, every update is
// one served episode, and the entropy weight does not decay.
const (
	// lr is Adam's learning rate.
	lr = 1e-3
	// entropyWeight scales the exploration bonus — lower than offline
	// training: served traffic should not be degraded by aggressive
	// exploration.
	entropyWeight = 0.01
	// minSteps drops episodes with fewer recorded decisions: a single step
	// has zero advantage and contributes nothing.
	minSteps = 2
	// queueCap bounds the pending-episode queue. When full, the oldest
	// queued episode is dropped — learning prefers fresh traffic, and
	// serving must never block on a slow trainer.
	queueCap = 64
)

// Stats is a snapshot of the trainer's counters.
type Stats struct {
	// EpisodesSubmitted counts episodes offered via Submit.
	EpisodesSubmitted uint64
	// EpisodesConsumed counts episodes a TrainOnce update consumed.
	EpisodesConsumed uint64
	// EpisodesDropped counts episodes lost to queue overflow or minSteps.
	EpisodesDropped uint64
	// StepsConsumed counts replayed decision steps.
	StepsConsumed uint64
	// Updates counts optimizer steps taken.
	Updates uint64
	// Publishes counts registry versions published.
	Publishes uint64
}

// Trainer consumes recorded episodes and trains a private copy of the
// serving policy. Submit is safe from any goroutine (serving sessions call
// it as they close); TrainOnce/Publish serialise on the trainer's lock, so
// one background goroutine typically owns the training cadence.
type Trainer struct {
	mu    sync.Mutex
	queue [][]core.ReplayStep // slices.Delete nils the slot a shift vacates
	agent *core.Agent
	opt   *nn.Adam
	// replay is the tape of the update in progress, reused across updates.
	replay core.ReplayScratch

	submitted atomic.Uint64
	consumed  atomic.Uint64
	dropped   atomic.Uint64
	steps     atomic.Uint64
	updates   atomic.Uint64
	publishes atomic.Uint64
}

// New builds a trainer whose policy starts as a parameter copy of base.
// The trainer's agent is private: serving agents are never mutated by
// training — new parameters only reach them through a registry publish and
// an explicit hot-swap.
func New(base *core.Agent) *Trainer {
	t := &Trainer{}
	// The clone's RNG is never drawn from — replay training recomputes
	// recorded actions, it does not sample — so any seed is equivalent.
	t.agent = base.Clone(rand.New(rand.NewSource(1)))
	t.opt = nn.NewAdam(lr)
	return t
}

// Submit offers one completed episode to the trainer, taking ownership of
// steps (the recorder hands over its buffer and starts a fresh one). Never
// blocks: when the queue is full the oldest pending episode is dropped.
func (t *Trainer) Submit(steps []core.ReplayStep) {
	t.submitted.Add(1)
	if len(steps) < minSteps {
		t.dropped.Add(1)
		return
	}
	t.mu.Lock()
	if len(t.queue) >= queueCap {
		t.queue = slices.Delete(t.queue, 0, 1)
		t.dropped.Add(1)
	}
	t.queue = append(t.queue, steps)
	t.mu.Unlock()
}

// Pending returns the number of queued episodes.
func (t *Trainer) Pending() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.queue)
}

// TrainOnce consumes the oldest queued episode and applies one REINFORCE
// update. It reports the number of steps consumed and whether an episode
// was available.
func (t *Trainer) TrainOnce() (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.queue) == 0 {
		return 0, false
	}
	steps := t.queue[0]
	t.queue = slices.Delete(t.queue, 0, 1)
	if t.update(steps) {
		t.updates.Add(1)
	}
	t.consumed.Add(1)
	t.steps.Add(uint64(len(steps)))
	return len(steps), true
}

// update applies one policy-gradient step from a single episode. Returns
// use the avg-JCT objective of §5.3 relative to the episode's last
// observation (R_k = −(JS_final − JS_k)); the baseline is the episode's
// mean return; the rest is offline training's path.
func (t *Trainer) update(steps []core.ReplayStep) bool {
	// A recorded step with no graphs carries nothing to differentiate
	// through; an episode from a malformed client is skipped, not a crash.
	usable := steps[:0:0]
	for _, s := range steps {
		if len(s.Graphs) > 0 {
			usable = append(usable, s)
		}
	}
	if len(usable) < minSteps {
		return false
	}
	steps = usable
	advs := rl.JCTReturns(nil, steps, steps[len(steps)-1].JobSeconds)
	var mean float64
	for _, r := range advs {
		mean += r
	}
	mean /= float64(len(advs))
	for k := range advs {
		advs[k] -= mean
	}
	std, scale := rl.Normalization(advs)
	wLogp, wEnt := rl.LossWeights(nil, nil, advs, std, scale, entropyWeight)
	params := t.agent.Params()
	nn.ZeroGrads(params)
	loss, _ := t.agent.ReplayLoss(&t.replay, steps, wLogp, wEnt)
	loss.Backward(1)
	t.replay.Reset() // the episode's graphs are not held until the next one
	nn.ClipGradNorm(params, nn.GradClip)
	t.opt.Step(params)
	return true
}

// Drain trains on every queued episode and returns how many it consumed.
func (t *Trainer) Drain() int {
	n := 0
	for {
		if _, ok := t.TrainOnce(); !ok {
			return n
		}
		n++
	}
}

// Publish writes the trainer's current parameters to the registry as the
// next version of name and returns that version. The caller then loads the
// checkpoint back (registry.Checkpoint.LoadInto) into a staging agent to
// hot-swap serving agents — the trainer keeps mutating its own agent, never
// the parameters a swap reads.
func (t *Trainer) Publish(reg *registry.Registry, name, note string) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ver, err := reg.Publish(name, t.agent.Params(), note)
	if err != nil {
		return 0, err
	}
	t.publishes.Add(1)
	return ver, nil
}

// Stats snapshots the trainer's counters.
func (t *Trainer) Stats() Stats {
	return Stats{
		EpisodesSubmitted: t.submitted.Load(),
		EpisodesConsumed:  t.consumed.Load(),
		EpisodesDropped:   t.dropped.Load(),
		StepsConsumed:     t.steps.Load(),
		Updates:           t.updates.Load(),
		Publishes:         t.publishes.Load(),
	}
}

// WriteProm writes the trainer's counters in Prometheus text format; the
// serving ops endpoint appends this to its /metrics page.
func (t *Trainer) WriteProm(w io.Writer) {
	s := t.Stats()
	c := func(name string, v uint64) { obs.Write(w, name, "counter", obs.Sample{Value: float64(v)}) }
	c("online_episodes_submitted_total", s.EpisodesSubmitted)
	c("online_episodes_consumed_total", s.EpisodesConsumed)
	c("online_episodes_dropped_total", s.EpisodesDropped)
	c("online_steps_consumed_total", s.StepsConsumed)
	c("online_updates_total", s.Updates)
	c("online_publishes_total", s.Publishes)
}
