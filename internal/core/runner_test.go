package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestDecimaRunnerSharesModel pins what the registry's "decima" factory
// serves for Options.Agent: a runner that reads the agent's parameter
// tensors by pointer but owns its RNG and embedding cache, and that adopts a
// model installed on the agent at its next decision and not before.
func TestDecimaRunnerSharesModel(t *testing.T) {
	const executors = 6
	cfg := sim.SparkDefaults(executors)
	base := core.New(core.DefaultConfig(executors), rand.New(rand.NewSource(1)))
	s, err := scheduler.New("decima", scheduler.Options{Agent: base, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := s.(*core.Agent)
	shared := func(what string, got, want []*nn.Tensor) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: parameter tensor %d is not the model's", what, i)
			}
		}
	}
	shared("runner", r.Params(), base.Params())
	if r.RNG() == base.RNG() {
		t.Fatal("runner samples from the base's RNG")
	}

	// The base fills its own cache on a run of its own; the runner's run
	// below must neither read nor touch it.
	sim.New(cfg, workload.Batch(rand.New(rand.NewSource(3)), 3), base, rand.New(rand.NewSource(3))).Run()
	baseCached := core.CachedJobs(base)
	if baseCached == 0 || core.CachedJobs(r) != 0 {
		t.Fatalf("after the base's run: base caches %d jobs, runner %d; want >0 and 0", baseCached, core.CachedJobs(r))
	}

	next := core.NewModel(base.Cfg, rand.New(rand.NewSource(4)))
	const installAt = 5
	decisions := 0
	probe := sim.SchedulerFunc(func(st *sim.State) *sim.Action {
		decisions++
		if decisions == installAt {
			base.Install(next)
			shared("base after Install", base.Params(), next.Params())
			if r.Params()[0] == next.Params()[0] {
				t.Fatal("the install reached the runner before its next decision")
			}
		}
		act := r.Schedule(st)
		if decisions == installAt {
			shared("runner after its next decision", r.Params(), next.Params())
		}
		return act
	})
	sim.New(cfg, workload.Batch(rand.New(rand.NewSource(5)), 4), probe, rand.New(rand.NewSource(5))).Run()
	if decisions <= installAt {
		t.Fatalf("run made %d decisions, want more than %d", decisions, installAt)
	}
	if core.CachedJobs(r) == 0 || core.CachedJobs(base) != baseCached {
		t.Fatalf("after the runner's run: runner caches %d jobs, base %d (was %d)", core.CachedJobs(r), core.CachedJobs(base), baseCached)
	}
}
