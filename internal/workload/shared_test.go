package workload_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/rl"
	"repro/internal/rpcsvc"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestSharedDAGReadOnlyEverywhere is the system guard of the shared job DAG:
// every TPC-H instance shares its template's stages and level plan, so a
// consumer that wrote to a Stage would change every other instance. It
// digests one instance of each of the 132 templates, runs every registry
// scheduler through the simulator over them (concurrently), one two-worker
// rl iteration, and one loopback rpcsvc session over the two smallest sizes,
// and requires the
// digest unchanged and fresh instances still sharing the same stages. Under
// `make race` the schedulers and the rl workers read the shared stages from
// several goroutines at once, so a write fails as a data race.
func TestSharedDAGReadOnlyEverywhere(t *testing.T) {
	var jobs []*dag.Job
	for q := 1; q <= workload.NumQueries; q++ {
		for _, size := range workload.Sizes {
			jobs = append(jobs, workload.TPCHJob(q, size))
		}
	}
	want := workload.DigestJobs(jobs)
	arrivals := make([]float64, len(jobs))
	for i := range arrivals {
		arrivals[i] = float64(i) * 5
	}
	jobs = workload.WithArrivals(jobs, arrivals)
	const executors = 20
	simCfg := sim.SparkDefaults(executors)

	// A small agent keeps "decima" and the rl iteration cheap under -race;
	// the DAG they read is the same at any width.
	agentCfg := core.DefaultConfig(executors)
	agentCfg.EmbedDim, agentCfg.Hidden = 4, []int{8}
	agent := core.New(agentCfg, rand.New(rand.NewSource(3)))

	names := scheduler.Names()
	errs := make([]string, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := scheduler.New(name, scheduler.Options{Executors: executors, Seed: 1, Agent: agent})
			if err != nil {
				errs[i] = err.Error()
				return
			}
			res := sim.New(simCfg, workload.CloneAll(jobs), scheduler.Sim(s), rand.New(rand.NewSource(2))).Run()
			if res.Deadlock || res.Unfinished != 0 {
				errs[i] = name + " did not finish every job"
			}
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Fatal(e)
		}
	}

	cfg := rl.DefaultConfig()
	cfg.Workers, cfg.EpisodesPerIter = 2, 2
	tr := rl.NewTrainer(agent, cfg, rand.New(rand.NewSource(4)))
	if st := tr.Iteration(func(*rand.Rand) []*dag.Job { return jobs }, simCfg); st.MeanSteps <= 0 {
		t.Fatal("the rl iteration made no decisions")
	}

	// The session sends every job in full once, then only counter deltas,
	// so the 2 and 5 GB instances reach every wire path at a fraction of the
	// events of the whole set.
	var small []*dag.Job
	for i, j := range jobs {
		if i%len(workload.Sizes) < 2 {
			small = append(small, j)
		}
	}
	srv, err := rpcsvc.ListenAndServeSessions("127.0.0.1:0", rpcsvc.SessionConfig{Default: "fifo"})
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
	res := sim.New(simCfg, workload.CloneAll(small), ss, rand.New(rand.NewSource(5))).Run()
	ss.Close()
	if res.Deadlock || res.Unfinished != 0 {
		t.Fatal("the rpcsvc session did not finish every job")
	}

	var again []*dag.Job
	for q := 1; q <= workload.NumQueries; q++ {
		for _, size := range workload.Sizes {
			again = append(again, workload.TPCHJob(q, size))
		}
	}
	if got := workload.DigestJobs(again); got != want {
		t.Fatalf("instance digest %#016x after the runs, want %#016x", got, want)
	}
	for i, j := range again {
		for k, st := range j.Stages {
			if st != jobs[i].Stages[k] {
				t.Fatalf("%s: stage %d is not its template's", j.Name, k)
			}
		}
		if j.Levels() != jobs[i].Levels() {
			t.Fatalf("%s: level plan is not its template's", j.Name)
		}
	}
}
