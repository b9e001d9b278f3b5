package repro

// End-to-end integration tests spanning every layer: workload → training →
// model persistence → RPC service → simulation → metrics.

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/rl"
	"repro/internal/rpcsvc"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestEndToEndTrainSaveServeSchedule trains an agent briefly, publishes it
// to a model registry, loads the checkpoint into a fresh agent behind the
// RPC service, and drives a simulation over TCP — the full §6 deployment
// path.
func TestEndToEndTrainSaveServeSchedule(t *testing.T) {
	const executors = 6
	simCfg := sim.SparkDefaults(executors)
	src := func(rng *rand.Rand) []*dag.Job { return workload.Batch(rng, 4) }

	agent := core.New(core.DefaultConfig(executors), rand.New(rand.NewSource(1)))
	cfg := rl.DefaultConfig()
	cfg.EpisodesPerIter = 2
	rl.NewTrainer(agent, cfg, rand.New(rand.NewSource(2))).Train(5, src, simCfg, nil)

	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("e2e", agent.Params(), "integration test"); err != nil {
		t.Fatal(err)
	}
	ck, err := reg.Load(registry.Ref{Name: "e2e"})
	if err != nil {
		t.Fatal(err)
	}
	served := core.New(core.DefaultConfig(executors), rand.New(rand.NewSource(3)))
	if err := ck.LoadInto(served.Params()); err != nil {
		t.Fatal(err)
	}
	srv, err := rpcsvc.ListenAndServeSessions("127.0.0.1:0", rpcsvc.SessionConfig{
		Default: "decima",
		New: func(name string, seed int64) (scheduler.Scheduler, error) {
			return scheduler.New(name, scheduler.Options{Seed: seed, Agent: served})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := rpcsvc.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ss := &rpcsvc.SessionScheduler{Client: cli}
	res := sim.New(simCfg, workload.Batch(rand.New(rand.NewSource(4)), 5), ss, rand.New(rand.NewSource(5))).Run()
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Deadlock || res.Unfinished != 0 {
		t.Fatalf("remote trained agent failed: unfinished=%d deadlock=%v", res.Unfinished, res.Deadlock)
	}
	if res.AvgJCT() <= 0 {
		t.Fatal("no JCT recorded")
	}

	// The served (loaded) model must behave identically to the original
	// agent run locally in greedy mode.
	agent.Greedy = true
	local := sim.New(simCfg, workload.Batch(rand.New(rand.NewSource(4)), 5), agent, rand.New(rand.NewSource(5))).Run()
	if local.AvgJCT() != res.AvgJCT() || local.Makespan != res.Makespan || local.Invocations != res.Invocations {
		t.Fatalf("served model diverges from local: %v vs %v", res.AvgJCT(), local.AvgJCT())
	}
}

// TestAllSchedulersOnAllWorkloads is a broad compatibility sweep: every
// registry-registered policy completes every workload family without
// deadlock, selected exactly the way experiments and the server select
// them (scheduler.New by name).
func TestAllSchedulersOnAllWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	workloads := map[string][]*dag.Job{
		"tpch-batch":   workload.Batch(rng, 6),
		"tpch-poisson": workload.Poisson(rng, 6, 30),
		"trace": workload.IndustrialTrace(rng, workload.IndustrialTraceConfig{
			NumJobs: 5, MeanIAT: 10, MaxStages: 15,
		}),
	}
	for wname, jobs := range workloads {
		for _, sname := range scheduler.Names() {
			s, err := scheduler.New(sname, scheduler.Options{Executors: 8, Seed: 11})
			if err != nil {
				t.Fatalf("build %s: %v", sname, err)
			}
			res := sim.New(sim.SparkDefaults(8), workload.CloneAll(jobs), scheduler.Sim(s), rand.New(rand.NewSource(12))).Run()
			if res.Deadlock || res.Unfinished != 0 {
				t.Fatalf("%s on %s: unfinished=%d deadlock=%v", sname, wname, res.Unfinished, res.Deadlock)
			}
		}
	}
}

// TestLittlesLawConsistency checks the reward bookkeeping against queueing
// theory: the job-seconds integral equals the sum of JCTs when every job
// completes (both equal ∫ #jobs dt).
func TestLittlesLawConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	jobs := workload.Poisson(rng, 10, 30)
	fair, err := scheduler.New("fair", scheduler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.New(sim.SparkDefaults(6), jobs, scheduler.Sim(fair), rng).Run()
	if res.Unfinished != 0 {
		t.Fatal("jobs unfinished")
	}
	var sumJCT float64
	for _, j := range metrics.JCTs(res.Completed) {
		sumJCT += j
	}
	if diff := absF(sumJCT-res.JobSeconds) / sumJCT; diff > 1e-9 {
		t.Fatalf("Little's law violated: ΣJCT=%v vs ∫jobs dt=%v", sumJCT, res.JobSeconds)
	}
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
