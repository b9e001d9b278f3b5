package online

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/registry"
	"repro/internal/rpcsvc"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// onlineLoopCheckpoint runs the whole closed loop once — serve recorded
// sessions through a real RPC server, train on what arrived, publish,
// reload, hot-swap, serve again, publish again — and returns the v2
// checkpoint's file bytes. Everything is seeded, so two runs (under any
// matmul worker count) must produce identical bytes.
func onlineLoopCheckpoint(t *testing.T, workers int) []byte {
	t.Helper()
	nn.SetMatMulWorkers(workers)
	defer nn.SetMatMulWorkers(0)

	const executors = 5
	base := smallAgent(77)
	base.Greedy = true
	tr := New(base, Config{})

	srv, err := rpcsvc.ListenAndServeSessions("127.0.0.1:0", rpcsvc.SessionConfig{
		Default: "decima",
		New: func(name string, seed int64) (scheduler.Scheduler, error) {
			return scheduler.New(name, scheduler.Options{Seed: seed, Agent: base})
		},
		RecordSink: tr.Submit,
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

	// serve runs `rounds` sequential recorded sessions; sequential order
	// keeps the trainer's queue order deterministic.
	serve := func(firstSeed int64, rounds int) {
		for r := 0; r < rounds; r++ {
			seed := firstSeed + int64(r)
			var rpcErr error
			ss := &rpcsvc.SessionScheduler{Client: cli, Seed: seed, Record: true, OnError: func(e error) { rpcErr = e }}
			jobs := workload.Batch(rand.New(rand.NewSource(seed)), 3)
			res := sim.New(sim.SparkDefaults(executors), jobs, ss, rand.New(rand.NewSource(seed))).Run()
			if err := ss.Close(); err != nil {
				t.Fatal(err)
			}
			if rpcErr != nil {
				t.Fatal(rpcErr)
			}
			if res.Deadlock || res.Unfinished != 0 {
				t.Fatalf("session %d: unfinished=%d deadlock=%v", seed, res.Unfinished, res.Deadlock)
			}
		}
	}

	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: serve, train on the recorded traffic, publish v1.
	serve(100, 3)
	if n := tr.Drain(); n != 3 {
		t.Fatalf("phase 1 drained %d episodes, want 3", n)
	}
	if _, err := tr.Publish(reg, "loop", "phase 1"); err != nil {
		t.Fatal(err)
	}

	// Hot-swap: reload the published checkpoint into a new model and install
	// it as the served one — the same publish→reload→install flow
	// decima-server runs, so the swap can never alias the still-mutating
	// trainer agent.
	ck, err := reg.Load(registry.Ref{Name: "loop"})
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewModel(base.Cfg, rand.New(rand.NewSource(1)))
	if err := ck.LoadInto(m.Params()); err != nil {
		t.Fatal(err)
	}
	srv.Service().Install(base, m, ck.Name, ck.Version)
	if name, ver := srv.Service().Model(); name != "loop" || ver != 1 {
		t.Fatalf("served model after swap = %q@%d, want loop@1", name, ver)
	}

	// Phase 2: serve on the swapped model, train, publish v2.
	serve(200, 3)
	if n := tr.Drain(); n != 3 {
		t.Fatalf("phase 2 drained %d episodes, want 3", n)
	}
	ver, err := tr.Publish(reg, "loop", "phase 2")
	if err != nil {
		t.Fatal(err)
	}
	if ver != 2 {
		t.Fatalf("phase 2 published v%d, want v2", ver)
	}

	data, err := os.ReadFile(filepath.Join(reg.Root(), "loop", "v2.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestOnlineLoopDeterministic is the online loop's determinism bar: the
// full serve→record→train→publish→swap→serve→publish cycle, run twice and
// under different matmul worker counts, lands on bitwise-identical v2
// registry checkpoints. Any nondeterminism anywhere in the loop — wire
// encoding, recording order, queue handling, training arithmetic,
// checkpoint serialisation — breaks the byte compare.
func TestOnlineLoopDeterministic(t *testing.T) {
	ref := onlineLoopCheckpoint(t, 1)
	if len(ref) == 0 {
		t.Fatal("empty checkpoint")
	}
	for _, w := range []int{1, 4} {
		if got := onlineLoopCheckpoint(t, w); !bytesEqual(ref, got) {
			t.Fatalf("online loop checkpoint differs on rerun with %d matmul workers", w)
		}
	}
}
