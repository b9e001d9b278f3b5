// Package scheduler defines the unified decision-making contract every
// scheduling policy in this repository — the learned Decima agent
// (internal/core) and the heuristic baselines (internal/sched) — implements,
// plus a name-keyed registry so experiments, benchmarks and the serving
// binaries select policies by name (`-scheduler decima|fifo|sjf-cp|...`)
// instead of hard-coding constructors.
//
// The contract is deliberately narrow: one observation in, one action out,
// plus an explicit Reset separating runs. The error slot is for a decision
// that can fail at runtime; every policy registered here decides in process
// and returns a nil error, and Sim treats an error as a decline.
package scheduler

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/sim"
)

// Scheduler is the unified decision contract (v1).
type Scheduler interface {
	// Decide returns the next scheduling action for the observed cluster
	// state, or (nil, nil) to decline (leave remaining executors idle).
	// The simulator — or a live cluster driver — calls Decide repeatedly
	// within one scheduling event until it declines or executors run out.
	// The State (and its Jobs and FreeExecutors slices) is valid for the
	// call only: callers such as the rpcsvc session rebuild it in place for
	// the next event, so an implementation keeps what it needs — the
	// *sim.JobState and *sim.Executor values are stable — not the State.
	Decide(s *sim.State) (*sim.Action, error)
	// Reset clears per-run state (caches keyed by job pointers, learned
	// nothing) so the same instance can serve a fresh run. It must be safe
	// to call between runs; it is never called concurrently with Decide.
	Reset()
}

// Func adapts a decision function to the Scheduler interface with a no-op
// Reset.
type Func func(s *sim.State) (*sim.Action, error)

// Decide implements Scheduler.
func (f Func) Decide(s *sim.State) (*sim.Action, error) { return f(s) }

// Reset implements Scheduler.
func (f Func) Reset() {}

// Options parameterises registry construction. Every field is optional
// unless a factory documents otherwise; factories ignore fields they do not
// use.
type Options struct {
	// Executors sizes policies that need the cluster size at construction
	// (the Decima networks' parallelism-limit head). Required by "decima"
	// unless Agent is set.
	Executors int
	// Classes carries the multi-resource executor classes (empty in the
	// single-resource setting).
	Classes []sim.ExecutorClass
	// Seed seeds stochastic policies (Decima's action sampling, "random").
	Seed int64
	// Sampled makes "decima" sample actions instead of greedy argmax.
	Sampled bool
	// Agent, when non-nil, makes "decima" serve a runner of this pre-built
	// (typically trained) agent (core.Agent.Runner) instead of constructing
	// a fresh one. Runners share the agent's model by pointer, which is never
	// written, and own their cache and RNG, so every New call still returns
	// an independent instance. A model installed on Agent later reaches
	// each runner at its next decision.
	Agent *core.Agent
}

// Factory builds one fresh scheduler instance. Instances returned by
// successive calls must share no mutable state.
type Factory func(o Options) (Scheduler, error)

var (
	regMu     sync.RWMutex
	factories = map[string]Factory{}
	aliases   = map[string]string{}
)

// Register adds a named factory to the registry. Registering a duplicate
// name panics: names are API.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := factories[name]; dup {
		panic(fmt.Sprintf("scheduler: duplicate registration of %q", name))
	}
	factories[name] = f
}

// RegisterAlias maps an alternative spelling onto a canonical name (e.g.
// "sjf" → "sjf-cp"). Aliases resolve in New but are not listed by Names.
func RegisterAlias(alias, canonical string) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := aliases[alias]; dup {
		panic(fmt.Sprintf("scheduler: duplicate alias %q", alias))
	}
	aliases[alias] = canonical
}

// New builds a fresh instance of the named scheduler.
func New(name string, o Options) (Scheduler, error) {
	regMu.RLock()
	if c, ok := aliases[name]; ok {
		name = c
	}
	f, ok := factories[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("scheduler: unknown scheduler %q (registered: %v)", name, Names())
	}
	return f(o)
}

// Names returns the canonical registered names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(factories))
	for n := range factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Sim adapts a Scheduler to sim.Scheduler so it can drive a simulation.
// Instances that already implement sim.Scheduler (the agent and every
// heuristic do) are returned as-is, preserving their fast paths; otherwise
// Decide is wrapped and a decision error becomes a decline.
func Sim(s Scheduler) sim.Scheduler {
	if ss, ok := s.(sim.Scheduler); ok {
		return ss
	}
	return sim.SchedulerFunc(func(st *sim.State) *sim.Action {
		act, err := s.Decide(st)
		if err != nil {
			return nil
		}
		return act
	})
}
