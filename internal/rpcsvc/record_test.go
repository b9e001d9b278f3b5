package rpcsvc

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/registry"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// collectSink is a RecordSink capturing finished episodes for assertions.
type collectSink struct {
	mu       sync.Mutex
	episodes [][]core.ReplayStep
}

func (c *collectSink) sink(steps []core.ReplayStep) {
	c.mu.Lock()
	c.episodes = append(c.episodes, steps)
	c.mu.Unlock()
}

func (c *collectSink) take() [][]core.ReplayStep {
	c.mu.Lock()
	defer c.mu.Unlock()
	eps := c.episodes
	c.episodes = nil
	return eps
}

// TestRecordingWireEquivalence extends the wire equivalence bar to the
// online loop's serving half: the same seeded run served with trajectory
// recording ON is bit-identical to recording OFF and to the in-process
// agent — recording observes decisions, it must never perturb them. It also
// pins the recording contract: exactly one episode arrives at the sink when
// the session closes, its steps in decision order.
func TestRecordingWireEquivalence(t *testing.T) {
	const executors = 8
	cfg := sim.SparkDefaults(executors)
	jobs := workload.Batch(rand.New(rand.NewSource(5)), 6)

	sink := &collectSink{}
	srv, cli := startSessionServer(t, SessionConfig{
		Default:    "decima",
		New:        agentFactory(executors),
		RecordSink: sink.sink,
	})

	local, err := agentFactory(executors)("decima", 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := sim.New(cfg, workload.CloneAll(jobs), scheduler.Sim(local), rand.New(rand.NewSource(9))).Run()

	run := func(record bool) *sim.Result {
		ss := &SessionScheduler{Client: cli, Record: record}
		res := sim.New(cfg, workload.CloneAll(jobs), ss, rand.New(rand.NewSource(9))).Run()
		if err := ss.Close(); err != nil {
			t.Fatal(err)
		}
		return res
	}

	off := run(false)
	if got := sink.take(); len(got) != 0 {
		t.Fatalf("recording-off session delivered %d episodes", len(got))
	}
	on := run(true)

	if runKey(ref) != runKey(off) {
		t.Fatalf("recording-off session diverges from in-process:\n  local %s\n  off   %s", runKey(ref), runKey(off))
	}
	if runKey(ref) != runKey(on) {
		t.Fatalf("recording-on session diverges from in-process:\n  local %s\n  on    %s", runKey(ref), runKey(on))
	}

	eps := sink.take()
	if len(eps) != 1 {
		t.Fatalf("recorded session delivered %d episodes, want 1", len(eps))
	}
	steps := eps[0]
	if len(steps) == 0 {
		t.Fatal("recorded episode is empty")
	}
	if len(steps) > on.Invocations {
		t.Fatalf("recorded %d steps for %d scheduling events", len(steps), on.Invocations)
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].Time < steps[i-1].Time {
			t.Fatalf("steps out of decision order at %d: %v after %v", i, steps[i].Time, steps[i-1].Time)
		}
	}
	for i, rs := range steps {
		if len(rs.Graphs) == 0 {
			t.Fatalf("step %d recorded no graphs", i)
		}
	}
	if snap := srv.svc.Stats(); snap.RecordingOpens != 1 {
		t.Fatalf("RecordingOpens = %d, want 1", snap.RecordingOpens)
	}
}

// TestRecordWithoutSinkIsIgnored pins the wire-compat contract: Record on a
// server without a RecordSink is silently ignored and serves identically.
func TestRecordWithoutSinkIsIgnored(t *testing.T) {
	const executors = 6
	cfg := sim.SparkDefaults(executors)
	jobs := workload.Batch(rand.New(rand.NewSource(3)), 5)
	srv, cli := startSessionServer(t, SessionConfig{Default: "decima", New: agentFactory(executors)})

	local, err := agentFactory(executors)("decima", 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := sim.New(cfg, workload.CloneAll(jobs), scheduler.Sim(local), rand.New(rand.NewSource(4))).Run()

	ss := &SessionScheduler{Client: cli, Record: true}
	res := sim.New(cfg, workload.CloneAll(jobs), ss, rand.New(rand.NewSource(4))).Run()
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	if runKey(ref) != runKey(res) {
		t.Fatalf("ignored-record session diverges: %s vs %s", runKey(ref), runKey(res))
	}
	if snap := srv.svc.Stats(); snap.RecordingOpens != 0 {
		t.Fatalf("RecordingOpens = %d on a sink-less server", snap.RecordingOpens)
	}
}

// stageCheckpoint publishes src's parameters into a scratch registry and
// reloads the checkpoint into a new model shaped like template's — the exact
// publish→reload flow the serving binary hot-swaps through.
func stageCheckpoint(t *testing.T, template *core.Agent, src *core.Agent, name string) (*core.Model, *registry.Checkpoint) {
	t.Helper()
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ver, err := reg.Publish(name, src.Params(), "")
	if err != nil {
		t.Fatal(err)
	}
	ck, err := reg.Load(registry.Ref{Name: name, Version: ver})
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewModel(template.Cfg, rand.New(rand.NewSource(1)))
	if err := ck.LoadInto(m.Params()); err != nil {
		t.Fatal(err)
	}
	return m, ck
}

// TestSwapIdenticalWeightsIsNoOp is the hot-swap half of the equivalence
// bar. A swap installs a new model mid-run; the session adopts it at its
// next decision and re-embeds from a cold cache. So a sampled run served
// across a swap equals, bit for bit, an in-process agent that embeds every
// job afresh (NoCache) and has the staged weights copied over its own at the
// same decision — and swapping onto identical weights is a no-op on the
// schedule. An embedding cache kept across the swap, a reseeded RNG or a
// disturbed mirror would each shift the noisy run.
func TestSwapIdenticalWeightsIsNoOp(t *testing.T) {
	const executors = 8
	const sessSeed = 21
	cfg := sim.SparkDefaults(executors)
	jobs := workload.Batch(rand.New(rand.NewSource(11)), 6)
	newBase := func() *core.Agent {
		a := core.New(core.DefaultConfig(executors), rand.New(rand.NewSource(77)))
		a.Greedy = false // sampled: any perturbation changes the draws
		return a
	}
	// run drives the jobs through sched, calling swap just before decision
	// swapAt (0: never).
	run := func(sched sim.Scheduler, swapAt int, swap func()) *sim.Result {
		n := 0
		wrapped := sim.SchedulerFunc(func(st *sim.State) *sim.Action {
			if n++; n == swapAt {
				swap()
			}
			return sched.Schedule(st)
		})
		return sim.New(cfg, workload.CloneAll(jobs), wrapped, rand.New(rand.NewSource(13))).Run()
	}

	for _, tc := range []struct {
		name string
		src  *core.Agent // whose weights the swap installs; nil: the base's own
	}{
		{"identical weights", nil},
		{"different weights", core.New(core.DefaultConfig(executors), rand.New(rand.NewSource(177)))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := newBase()
			src := tc.src
			if src == nil {
				src = base
			}
			srv, cli := startSessionServer(t, SessionConfig{Default: "decima", New: runnerFactory(base)})
			m, ck := stageCheckpoint(t, base, src, "staged")
			served := func(swapAt int) *sim.Result {
				ss := &SessionScheduler{Client: cli, Seed: sessSeed}
				res := run(ss, swapAt, func() { srv.svc.Install(base, m, ck.Name, ck.Version) })
				if err := ss.Close(); err != nil {
					t.Fatal(err)
				}
				return res
			}

			unswapped := served(0)
			if unswapped.Invocations < 4 {
				t.Fatalf("reference run too short (%d events)", unswapped.Invocations)
			}
			swapAt := unswapped.Invocations / 2
			swapped := served(swapAt)
			ref := newBase()
			ref.NoCache = true
			ref.SetRNG(rand.New(rand.NewSource(sessSeed)))
			want := run(ref, swapAt, func() { nn.CopyParams(ref.Params(), m.Params()) })
			if runKey(want) != runKey(swapped) {
				t.Fatalf("hot-swap diverges from the in-process NoCache agent:\n  want    %s\n  swapped %s", runKey(want), runKey(swapped))
			}
			if (tc.src == nil) != (runKey(unswapped) == runKey(swapped)) {
				t.Fatalf("swap changed the schedule = %v, want %v:\n  unswapped %s\n  swapped   %s",
					runKey(unswapped) != runKey(swapped), tc.src != nil, runKey(unswapped), runKey(swapped))
			}
			snap := srv.svc.Stats()
			if snap.Swaps != 1 {
				t.Fatalf("Swaps = %d, want 1", snap.Swaps)
			}
			if snap.ModelName != "staged" || snap.ModelVersion != 1 {
				t.Fatalf("served model = %q@%d, want staged@1", snap.ModelName, snap.ModelVersion)
			}
		})
	}
}

// TestHotSwapUnderFire swaps the served model back and forth between two
// staged registry checkpoints while 16 concurrent sampled sessions decide.
// The invariants: every run completes (a swap never wedges or drops a
// session), at least two swaps land while they run, and under -race (make
// race) sessions adopting a model while it is being replaced is clean.
func TestHotSwapUnderFire(t *testing.T) {
	const executors = 6
	const sessions = 16
	base := core.New(core.DefaultConfig(executors), rand.New(rand.NewSource(77)))
	base.Greedy = false

	// Two parameter sets staged through the registry round-trip: A is base's
	// weights, B a different initialisation.
	other := core.New(core.DefaultConfig(executors), rand.New(rand.NewSource(177)))
	mA, ckA := stageCheckpoint(t, base, base, "model-a")
	mB, ckB := stageCheckpoint(t, base, other, "model-b")

	srv, cli := startSessionServer(t, SessionConfig{Default: "decima", New: runnerFactory(base)})

	// Swap loop: alternate the two staged models while the sessions run.
	done := make(chan struct{})
	swapperDone := make(chan struct{})
	go func() {
		defer close(swapperDone)
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if i%2 == 0 {
				srv.svc.Install(base, mA, ckA.Name, ckA.Version)
			} else {
				srv.svc.Install(base, mB, ckB.Name, ckB.Version)
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for k := 0; k < sessions; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var rpcErr error
			ss := &SessionScheduler{Client: cli, Seed: int64(30 + k), OnError: func(e error) { rpcErr = e }}
			defer ss.Close()
			jobs := workload.Batch(rand.New(rand.NewSource(int64(40+k))), 3)
			res := sim.New(sim.SparkDefaults(executors), jobs, ss, rand.New(rand.NewSource(int64(k)))).Run()
			if rpcErr != nil {
				errs <- rpcErr
				return
			}
			if res.Unfinished != 0 || res.Deadlock {
				errs <- fmt.Errorf("session %d: unfinished=%d deadlock=%v", k, res.Unfinished, res.Deadlock)
			}
		}(k)
	}
	wg.Wait()
	close(done)
	<-swapperDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	snap := srv.svc.Stats()
	if snap.Swaps < 2 {
		t.Fatalf("only %d swaps happened under fire", snap.Swaps)
	}
	t.Logf("under fire: %d swaps over %d events", snap.Swaps, snap.Events)
}

// TestRecorderRetainsSteps pins the recorder's half of the ReplayStep
// contract: every slice Agent.Record hands out aliases agent scratch that
// the next decision overwrites, so the ring must hold copies — a retained
// step read after the run's remaining (≥ 100) decisions equals, field for
// field, a plain deep copy taken the moment it was recorded.
func TestRecorderRetainsSteps(t *testing.T) {
	cfg := core.DefaultConfig(5)
	cfg.ClassMem = []float64{0.5, 1.0}
	agent := core.New(cfg, rand.New(rand.NewSource(3)))
	rec := &recorder{}
	var want []core.ReplayStep
	agent.Record = func(rs core.ReplayStep) {
		rec.record(rs)
		rs.Graphs = append(rs.Graphs[:0:0], rs.Graphs...)
		rs.Cands = append(rs.Cands[:0:0], rs.Cands...)
		rs.MinLimits = append(rs.MinLimits[:0:0], rs.MinLimits...)
		oks := make([][]bool, len(rs.ClassOKs))
		for i, ok := range rs.ClassOKs {
			oks[i] = append([]bool(nil), ok...)
		}
		rs.ClassOKs = oks
		want = append(want, rs)
	}
	rng := rand.New(rand.NewSource(4))
	simCfg := sim.Config{Classes: []sim.ExecutorClass{{Mem: 0.5, Count: 3}, {Mem: 1.0, Count: 2}}, MoveDelay: 2.5, FirstWaveFactor: 1.3}
	if res := sim.New(simCfg, workload.Batch(rng, 12), agent, rng).Run(); res.Unfinished != 0 {
		t.Fatalf("run left %d jobs unfinished", res.Unfinished)
	}
	got := rec.take()
	if len(want) <= 100 || len(got) != len(want) {
		t.Fatalf("%d decisions, %d retained; want equal and > 100", len(want), len(got))
	}
	for k := range got {
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Fatalf("retained step %d changed after it was recorded:\n got %+v\nwant %+v", k, got[k], want[k])
		}
	}
}
