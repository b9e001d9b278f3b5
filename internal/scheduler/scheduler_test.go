package scheduler

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestEveryRegisteredSchedulerCompletesARun builds every canonical registry
// entry and drives a small batched workload to completion through the
// unified Decide contract.
func TestEveryRegisteredSchedulerCompletesARun(t *testing.T) {
	const executors = 6
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			s, err := New(name, Options{Executors: executors, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			jobs := workload.Batch(rand.New(rand.NewSource(4)), 4)
			res := sim.New(sim.SparkDefaults(executors), jobs, Sim(s), rand.New(rand.NewSource(5))).Run()
			if res.Deadlock || res.Unfinished != 0 {
				t.Fatalf("unfinished=%d deadlock=%v", res.Unfinished, res.Deadlock)
			}
			// Reset must leave the instance able to serve a second run.
			s.Reset()
			jobs = workload.Batch(rand.New(rand.NewSource(6)), 3)
			res = sim.New(sim.SparkDefaults(executors), jobs, Sim(s), rand.New(rand.NewSource(7))).Run()
			if res.Deadlock || res.Unfinished != 0 {
				t.Fatalf("after Reset: unfinished=%d deadlock=%v", res.Unfinished, res.Deadlock)
			}
		})
	}
}

// TestAliasesResolve checks that the short spellings from the issue's CLI
// examples reach their canonical factories.
func TestAliasesResolve(t *testing.T) {
	for alias, canonical := range map[string]string{
		"sjf":      "sjf-cp",
		"pack":     "tetris",
		"wfair":    "opt-wfair",
		"graphene": "graphene-star",
	} {
		if _, err := New(alias, Options{}); err != nil {
			t.Fatalf("alias %q (→ %q) failed: %v", alias, canonical, err)
		}
	}
}

func TestUnknownNameErrors(t *testing.T) {
	if _, err := New("no-such-policy", Options{}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

// TestDecimaNeedsSizing documents the decima factory's contract: it needs
// either a cluster size or a pre-built agent.
func TestDecimaNeedsSizing(t *testing.T) {
	if _, err := New("decima", Options{}); err == nil {
		t.Fatal("decima without Executors or Agent accepted")
	}
}

// TestDecimaAgentCloneIsIndependent verifies that New(decima, {Agent})
// serves a new instance, a runner, that makes the source's decisions.
func TestDecimaAgentCloneIsIndependent(t *testing.T) {
	const executors = 6
	base := core.New(core.DefaultConfig(executors), rand.New(rand.NewSource(1)))
	base.Greedy = true

	s, err := New("decima", Options{Agent: base, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	clone, ok := s.(*core.Agent)
	if !ok {
		t.Fatalf("decima factory returned %T, want *core.Agent", s)
	}
	if clone == base {
		t.Fatal("factory returned the source agent, not a runner")
	}

	jobs := workload.Batch(rand.New(rand.NewSource(2)), 4)
	cfg := sim.SparkDefaults(executors)
	a := sim.New(cfg, workload.CloneAll(jobs), base, rand.New(rand.NewSource(3))).Run()
	b := sim.New(cfg, workload.CloneAll(jobs), clone, rand.New(rand.NewSource(3))).Run()
	if a.AvgJCT() != b.AvgJCT() || a.Makespan != b.Makespan {
		t.Fatalf("clone diverges from source: %v/%v vs %v/%v", a.AvgJCT(), a.Makespan, b.AvgJCT(), b.Makespan)
	}
}
