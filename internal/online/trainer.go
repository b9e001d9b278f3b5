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
// the baseline instead. Everything else is the same machinery: episodes
// replay through core.Agent.ReplayLoss (one batched tracked forward per
// episode), gradients are clipped and stepped with Adam.
//
// Determinism: the trainer has no randomness of its own. Given the same
// episodes in the same order, TrainOnce produces bit-identical parameters
// — the online-loop determinism test publishes a checkpoint after a seeded
// serve→record→train run and requires identical bytes across runs and
// matmul worker counts.
package online

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/registry"
)

// Config parameterises the online trainer.
type Config struct {
	// LR is Adam's learning rate (default 1e-3).
	LR float64
	// EntropyWeight scales the exploration bonus (default 0.01 — lower
	// than offline training: served traffic should not be degraded by
	// aggressive exploration).
	EntropyWeight float64
	// GradClip bounds the global gradient norm (default 10).
	GradClip float64
	// MinSteps drops episodes with fewer recorded decisions (default 2 —
	// a single step has zero advantage and contributes nothing).
	MinSteps int
	// QueueCap bounds the pending-episode queue (default 64). When full,
	// the oldest queued episode is dropped — learning prefers fresh
	// traffic, and serving must never block on a slow trainer.
	QueueCap int
}

func (c Config) withDefaults() Config {
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.EntropyWeight == 0 {
		c.EntropyWeight = 0.01
	}
	if c.GradClip == 0 {
		c.GradClip = 10
	}
	if c.MinSteps == 0 {
		c.MinSteps = 2
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	return c
}

// Stats is a snapshot of the trainer's counters.
type Stats struct {
	// EpisodesSubmitted counts episodes offered via Submit.
	EpisodesSubmitted uint64
	// EpisodesConsumed counts episodes a TrainOnce update consumed.
	EpisodesConsumed uint64
	// EpisodesDropped counts episodes lost to queue overflow or MinSteps.
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
	cfg Config

	mu    sync.Mutex
	queue [][]core.ReplayStep
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
func New(base *core.Agent, cfg Config) *Trainer {
	cfg = cfg.withDefaults()
	t := &Trainer{cfg: cfg}
	// The clone's RNG is never drawn from — replay training recomputes
	// recorded actions, it does not sample — so any seed is equivalent.
	t.agent = base.Clone(rand.New(rand.NewSource(1)))
	t.opt = nn.NewAdam(cfg.LR)
	return t
}

// Submit offers one completed episode to the trainer, taking ownership of
// steps (the recorder hands over its buffer and starts a fresh one). Never
// blocks: when the queue is full the oldest pending episode is dropped.
func (t *Trainer) Submit(steps []core.ReplayStep) {
	t.submitted.Add(1)
	if len(steps) < t.cfg.MinSteps {
		t.dropped.Add(1)
		return
	}
	t.mu.Lock()
	if len(t.queue) >= t.cfg.QueueCap {
		t.queue = append(t.queue[:0], t.queue[1:]...)
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
	t.queue[0] = nil
	t.queue = append(t.queue[:0], t.queue[1:]...)
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
// mean return; advantages are std-normalised as in offline training.
func (t *Trainer) update(steps []core.ReplayStep) bool {
	// A recorded step with no graphs carries nothing to differentiate
	// through; an episode from a malformed client is skipped, not a crash.
	usable := steps[:0:0]
	for _, s := range steps {
		if len(s.Graphs) > 0 {
			usable = append(usable, s)
		}
	}
	if len(usable) < t.cfg.MinSteps {
		return false
	}
	steps = usable
	n := len(steps)
	final := steps[n-1].JobSeconds
	returns := make([]float64, n)
	var mean float64
	for k := range steps {
		returns[k] = -(final - steps[k].JobSeconds)
		mean += returns[k]
	}
	mean /= float64(n)
	var sq float64
	for _, r := range returns {
		d := r - mean
		sq += d * d
	}
	std := 1.0
	if n > 1 {
		std = math.Sqrt(sq/float64(n)) + 1e-8
	}
	scale := 1 / float64(n)
	wLogp := make([]float64, n)
	wEnt := make([]float64, n)
	for k := range returns {
		adv := (returns[k] - mean) / std
		wLogp[k] = -adv * scale
		wEnt[k] = -t.cfg.EntropyWeight * scale
	}
	params := t.agent.Params()
	nn.ZeroGrads(params)
	loss, _ := t.agent.ReplayLoss(&t.replay, steps, wLogp, wEnt)
	loss.Backward(1)
	t.replay.Reset() // the episode's graphs are not held until the next one
	nn.ClipGradNorm(params, t.cfg.GradClip)
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
	fmt.Fprintf(w, "# TYPE online_episodes_submitted_total counter\nonline_episodes_submitted_total %d\n", s.EpisodesSubmitted)
	fmt.Fprintf(w, "# TYPE online_episodes_consumed_total counter\nonline_episodes_consumed_total %d\n", s.EpisodesConsumed)
	fmt.Fprintf(w, "# TYPE online_episodes_dropped_total counter\nonline_episodes_dropped_total %d\n", s.EpisodesDropped)
	fmt.Fprintf(w, "# TYPE online_steps_consumed_total counter\nonline_steps_consumed_total %d\n", s.StepsConsumed)
	fmt.Fprintf(w, "# TYPE online_updates_total counter\nonline_updates_total %d\n", s.Updates)
	fmt.Fprintf(w, "# TYPE online_publishes_total counter\nonline_publishes_total %d\n", s.Publishes)
}
