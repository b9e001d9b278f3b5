// Parallel rollout engine: episode collection and per-episode backward
// passes fan out over a pool of goroutine workers, each with a private agent
// clone, while the trainer's update step stays single-threaded. Training is
// bit-for-bit deterministic for a fixed seed regardless of worker count:
//
//   - every random draw is derived from the trainer RNG on one goroutine, in
//     a fixed order, before any worker starts (rolloutTask.seed);
//   - each episode is a pure function of (parameters, task, config, rbar),
//     and every worker holds a bit-identical parameter copy;
//   - gradients are accumulated per episode and merged in episode-index
//     order, so the floating-point summation order never depends on which
//     worker finished first.
package rl

import (
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/sim"
)

// engine is a pool of rollout workers. Episode i is owned by worker
// i mod len(workers) in both the collection and the backward phase, keeping
// each episode's pooled record storage and replayed gradient on the worker
// that collected it.
type engine struct {
	workers []*worker
}

// newEngine builds a pool of n workers cloned from the master agent.
func newEngine(master *core.Agent, n int) *engine {
	e := &engine{workers: make([]*worker, n)}
	for i := range e.workers {
		e.workers[i] = newWorker(i, n, master)
	}
	return e
}

// resolveWorkers maps the Config.Workers setting to a concrete pool size:
// values ≤ 0 select one worker per available CPU.
func resolveWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// sync refreshes every worker's parameter copy and sampling mode from the
// master agent.
func (e *engine) sync(master *core.Agent) {
	src := master.Params()
	for _, w := range e.workers {
		nn.CopyParams(w.agent.Params(), src)
		w.agent.Greedy = master.Greedy
	}
}

// collect rolls out all tasks across the pool and returns the episodes in
// task order. Workers write disjoint slice elements, so the only
// synchronisation needed is the final join.
func (e *engine) collect(cfg Config, rbar float64, tasks []rolloutTask, simCfg sim.Config) []*episode {
	episodes := make([]*episode, len(tasks))
	e.fanOut(len(tasks), func(w *worker, i int) {
		episodes[i] = w.rollout(cfg, rbar, i, tasks[i], simCfg)
	})
	return episodes
}

// backward replays every episode on its owning worker — one batched tracked
// forward plus one Backward per episode — populating episode.grads. The
// trainer then merges the per-episode gradients in episode order. The
// replay rebuilds its graph from the episode's records, so any worker
// *could* run it; keeping the collector's assignment keeps the episode's
// pooled record buffers on the goroutine that owns them, and the recorded
// owner guards against the assignment ever drifting from fanOut's.
func (e *engine) backward(episodes []*episode, stdA, scale, entropyWeight float64) {
	e.fanOut(len(episodes), func(w *worker, i int) {
		if ep := episodes[i]; ep.worker == w.idx {
			w.backward(ep, stdA, scale, entropyWeight)
		} else {
			panic("rl: episode backward scheduled on a worker that does not own its storage")
		}
	})
}

// fanOut invokes fn(worker, i) for i in [0, n), with worker w handling the
// indices congruent to w.idx modulo the pool size, each worker walking its
// indices in increasing order on its own goroutine. With a single worker
// this degenerates to a plain sequential loop on the caller's goroutine.
func (e *engine) fanOut(n int, fn func(w *worker, i int)) {
	nw := len(e.workers)
	if nw == 1 {
		for i := 0; i < n; i++ {
			fn(e.workers[0], i)
		}
		return
	}
	var wg sync.WaitGroup
	for _, w := range e.workers {
		if w.idx >= n {
			break
		}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for i := w.idx; i < n; i += nw {
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}
