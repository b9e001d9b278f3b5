package fleet

import (
	"io"
	"log/slog"
	"strconv"
	"testing"
	"time"

	"repro/internal/rpcsvc"
	"repro/internal/sim"
)

// TestDrainLeavesNoTombstones drains a replica carrying k live session
// clients and lets every client heal. Each drained fleet session answers
// wrong-shard once; that answer must consume its tombstone, because the
// healed client reopens under a fresh id and never closes the old one.
func TestDrainLeavesNoTombstones(t *testing.T) {
	const k = 4
	rt := New(Config{HealthInterval: -1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer rt.Stop()
	for _, id := range []string{"r1", "r2"} {
		srv, err := rpcsvc.ListenAndServeSessions("127.0.0.1:0", rpcsvc.SessionConfig{Default: "fifo", ReplicaID: id, IdleTimeout: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if err := rt.AddReplica(id, srv.Addr(), "", 0); err != nil {
			t.Fatal(err)
		}
	}
	front, err := ListenAndServe("127.0.0.1:0", rt)
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	cli, err := rpcsvc.Dial(front.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	st := &sim.State{FreeExecutors: []*sim.Executor{{ID: 0, Mem: 1}}, TotalExecutors: 2}
	var clients []*rpcsvc.SessionScheduler
	for i := 0; len(clients) < k; i++ {
		key := "tomb-" + strconv.Itoa(i)
		if rt.ring.Owner(key) != "r1" {
			continue
		}
		ss := &rpcsvc.SessionScheduler{Client: cli, Key: key, Backoff: time.Millisecond}
		defer ss.Close()
		ss.Schedule(st)
		if ss.Replica() != "r1" {
			t.Fatalf("session %q opened on %q, want r1", key, ss.Replica())
		}
		clients = append(clients, ss)
	}
	if n, err := rt.DrainReplica("r1"); err != nil || n != k {
		t.Fatalf("drain migrated %d sessions (%v), want %d", n, err, k)
	}
	for _, ss := range clients {
		ss.Schedule(st)
		if cs := ss.Stats(); cs.WrongShard != 1 || ss.Replica() != "r2" {
			t.Fatalf("client did not heal through one wrong-shard answer: stats %+v, replica %q", cs, ss.Replica())
		}
	}
	rt.mu.RLock()
	left := len(rt.tombs)
	rt.mu.RUnlock()
	if left != 0 {
		t.Fatalf("%d drain tombstones left after every client healed, want 0", left)
	}
}
