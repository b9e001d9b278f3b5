package online

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/nn"
	"repro/internal/registry"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/workload"
)

func smallAgent(seed int64) *core.Agent {
	cfg := core.DefaultConfig(5)
	cfg.EmbedDim = 4
	cfg.Hidden = []int{8}
	return core.New(cfg, rand.New(rand.NewSource(seed)))
}

// recordEpisodes rolls seeded episodes on a greedy agent with the Record
// hook on — the in-process equivalent of what a recording serving session
// captures — and returns them in serving order.
func recordEpisodes(t testing.TB, rounds, jobsN int) [][]core.ReplayStep {
	t.Helper()
	agent := smallAgent(7)
	agent.Greedy = true
	var eps [][]core.ReplayStep
	for r := 1; r <= rounds; r++ {
		var cur []core.ReplayStep
		agent.Record = func(rs core.ReplayStep) {
			// The step's slices alias agent scratch; copy them like the
			// serving recorder does.
			cur = append(cur, new(core.StepArena).Retain(rs))
		}
		jobs := workload.Batch(rand.New(rand.NewSource(int64(r))), jobsN)
		res := sim.New(sim.SparkDefaults(5), jobs, agent, rand.New(rand.NewSource(int64(r)))).Run()
		agent.Record = nil
		agent.Reset()
		if res.Deadlock || res.Unfinished != 0 {
			t.Fatalf("round %d: unfinished=%d deadlock=%v", r, res.Unfinished, res.Deadlock)
		}
		if len(cur) == 0 {
			t.Fatalf("round %d recorded nothing", r)
		}
		eps = append(eps, cur)
	}
	return eps
}

func TestSubmitBoundsAndDrops(t *testing.T) {
	tr := New(smallAgent(1), Config{QueueCap: 3})

	// Below MinSteps: dropped, never queued.
	tr.Submit([]core.ReplayStep{{}})
	if got := tr.Pending(); got != 0 {
		t.Fatalf("short episode queued (pending %d)", got)
	}
	mk := func() []core.ReplayStep { return make([]core.ReplayStep, 2) }
	for i := 0; i < 5; i++ {
		tr.Submit(mk())
	}
	if got := tr.Pending(); got != 3 {
		t.Fatalf("pending = %d, want QueueCap 3", got)
	}
	st := tr.Stats()
	if st.EpisodesSubmitted != 6 {
		t.Fatalf("submitted = %d, want 6", st.EpisodesSubmitted)
	}
	if st.EpisodesDropped != 3 { // 1 short + 2 overflowed
		t.Fatalf("dropped = %d, want 3", st.EpisodesDropped)
	}
	if _, ok := tr.TrainOnce(); !ok {
		t.Fatal("TrainOnce found nothing despite a non-empty queue")
	}
	if got := tr.Pending(); got != 2 {
		t.Fatalf("pending after TrainOnce = %d", got)
	}
}

func TestTrainOnceEmptyQueue(t *testing.T) {
	tr := New(smallAgent(1), Config{})
	if n, ok := tr.TrainOnce(); ok || n != 0 {
		t.Fatalf("TrainOnce on empty queue = (%d, %v)", n, ok)
	}
}

// TestUpdateMovesParameters sanity-checks that training actually updates
// the trainer's private policy and leaves the base agent untouched.
func TestUpdateMovesParameters(t *testing.T) {
	base := smallAgent(7)
	before := paramBits(base.Params())
	tr := New(base, Config{})
	eps := recordEpisodes(t, 2, 2)
	for _, ep := range eps {
		tr.Submit(ep)
	}
	if n := tr.Drain(); n != 2 {
		t.Fatalf("Drain consumed %d episodes, want 2", n)
	}
	if same(paramBits(tr.agent.Params()), paramBits(base.Params())) {
		t.Fatal("training left the policy parameters unchanged")
	}
	if !same(paramBits(base.Params()), before) {
		t.Fatal("training mutated the base agent")
	}
	st := tr.Stats()
	if st.Updates != 2 || st.StepsConsumed == 0 {
		t.Fatalf("stats after drain: %+v", st)
	}
}

func paramBits(params []*nn.Tensor) []uint64 {
	var out []uint64
	for _, p := range params {
		for _, v := range p.Data {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

func same(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// trainAndPublish replays the same recorded episodes through a fresh
// trainer under the given matmul worker count and returns the published
// checkpoint's file bytes.
func trainAndPublish(t *testing.T, eps [][]core.ReplayStep, workers int) []byte {
	t.Helper()
	nn.SetMatMulWorkers(workers)
	defer nn.SetMatMulWorkers(0)
	tr := New(smallAgent(7), Config{})
	for _, ep := range eps {
		// The trainer takes ownership but never mutates steps; sharing the
		// recorded episodes across trainers keeps the input identical.
		tr.Submit(ep)
	}
	if n := tr.Drain(); n != len(eps) {
		t.Fatalf("Drain consumed %d of %d episodes", n, len(eps))
	}
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Publish(reg, "m", ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(reg.Root(), "m", "v1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointBitIdenticalAcrossMatMulWorkers is the online half of the
// determinism bar: the same recorded traffic trained under different matmul
// worker counts (and across repeated runs) publishes bitwise-identical
// registry checkpoints.
func TestCheckpointBitIdenticalAcrossMatMulWorkers(t *testing.T) {
	eps := recordEpisodes(t, 3, 2)
	ref := trainAndPublish(t, eps, 1)
	for _, w := range []int{1, 2, 4} {
		got := trainAndPublish(t, eps, w)
		if !bytesEqual(ref, got) {
			t.Fatalf("checkpoint bytes differ at %d matmul workers", w)
		}
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOfflinePublishBitIdenticalAcrossWorkers rides the rl parallel-rollout
// determinism guarantee (TestWorkersBitIdenticalTraining) through the
// registry: offline training with any rollout worker count publishes the
// same checkpoint bytes, so a registry version's identity never depends on
// the machine shape that trained it.
func TestOfflinePublishBitIdenticalAcrossWorkers(t *testing.T) {
	publish := func(workers int) []byte {
		agent := smallAgent(100)
		cfg := rl.DefaultConfig()
		cfg.EpisodesPerIter = 3
		cfg.Workers = workers
		cfg.InitialHorizon = 200
		cfg.HorizonGrowth = 20
		cfg.MaxHorizon = 2000
		tr := rl.NewTrainer(agent, cfg, rand.New(rand.NewSource(101)))
		tr.Train(2, func(rng *rand.Rand) []*dag.Job {
			jobs := make([]*dag.Job, 3)
			for i := range jobs {
				q := 1 + rng.Intn(workload.NumQueries)
				jobs[i] = workload.TPCHJob(q, workload.Sizes[rng.Intn(2)])
				jobs[i].ID = i
			}
			return jobs
		}, sim.SparkDefaults(5), nil)
		reg, err := registry.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Publish("off", agent.Params(), ""); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(reg.Root(), "off", "v1.ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	ref := publish(1)
	for _, w := range []int{2, 3} {
		if !bytesEqual(ref, publish(w)) {
			t.Fatalf("offline checkpoint bytes differ at %d workers", w)
		}
	}
}
