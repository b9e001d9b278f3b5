package scheduler

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/sched"
)

// Built-in registrations: the learned agent plus every §7.1 baseline, under
// the names the paper's figures use. Aliases cover the common short
// spellings.
func init() {
	Register("decima", newDecima)
	Register("fifo", func(Options) (Scheduler, error) { return sched.NewFIFO(), nil })
	Register("sjf-cp", func(Options) (Scheduler, error) { return sched.NewSJFCP(), nil })
	Register("fair", func(Options) (Scheduler, error) { return sched.NewFair(), nil })
	Register("naive-wfair", func(Options) (Scheduler, error) { return sched.NewNaiveWeightedFair(), nil })
	Register("opt-wfair", func(Options) (Scheduler, error) {
		return sched.NewWeightedFair(-1), nil // the tuned optimum the paper's sweep typically finds
	})
	Register("tetris", func(Options) (Scheduler, error) { return sched.NewTetris(), nil })
	Register("graphene-star", func(Options) (Scheduler, error) {
		return sched.NewGraphene(sched.DefaultGrapheneConfig()), nil
	})
	Register("random", func(o Options) (Scheduler, error) {
		return sched.NewRandom(rand.New(rand.NewSource(o.Seed))), nil
	})

	RegisterAlias("sjf", "sjf-cp")
	RegisterAlias("wfair", "opt-wfair")
	RegisterAlias("pack", "tetris")
	RegisterAlias("graphene", "graphene-star")
}

// newDecima builds a Decima agent, or a runner of Options.Agent. Greedy argmax
// is the serving default; Options.Sampled restores training-style sampling.
func newDecima(o Options) (Scheduler, error) {
	if o.Agent != nil {
		a := o.Agent.Runner(rand.New(rand.NewSource(o.Seed)))
		a.Greedy = !o.Sampled
		return a, nil
	}
	if o.Executors <= 0 {
		return nil, fmt.Errorf("scheduler: decima needs Options.Executors (or a pre-built Options.Agent)")
	}
	cfg := core.DefaultConfig(o.Executors)
	for _, c := range o.Classes {
		cfg.ClassMem = append(cfg.ClassMem, c.Mem)
	}
	a := core.New(cfg, rand.New(rand.NewSource(o.Seed)))
	a.Greedy = !o.Sampled
	return a, nil
}
