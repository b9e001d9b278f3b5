package rpcsvc_test

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/rpc"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/rpcsvc"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// v1Method is the deleted stateless protocol's one method, and v1Request the
// shape of its request, as an old client would still send them.
const v1Method = "Decima" + ".Schedule"

type v1Request struct {
	Time, JobSeconds float64
	TotalExecutors   int
}

// TestV1ClientsRefused pins the compatibility rule for the deleted stateless
// protocol: a v1Method call, against a replica or a fleet router,
// gets net/rpc's "can't find method" answer, which IsTransient does not
// match, so a client neither retries nor redials it. The same connection
// then opens a session and finishes a run equal to the in-process reference.
func TestV1ClientsRefused(t *testing.T) {
	const executors = 5
	newAgent := func(name string, seed int64) (scheduler.Scheduler, error) {
		a := core.New(core.DefaultConfig(executors), rand.New(rand.NewSource(77)))
		a.Greedy = true
		return a, nil
	}
	jobs := workload.Batch(rand.New(rand.NewSource(41)), 4)
	run := func(s sim.Scheduler) string {
		r := sim.New(sim.SparkDefaults(executors), workload.CloneAll(jobs), s, rand.New(rand.NewSource(3))).Run()
		return fmt.Sprintf("%v/%v/%v/%d/%d/%d", r.AvgJCT(), r.Makespan, r.JobSeconds, r.Invocations, len(r.Completed), r.Unfinished)
	}
	local, err := newAgent("decima", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := run(scheduler.Sim(local))

	replica, err := rpcsvc.ListenAndServeSessions("127.0.0.1:0", rpcsvc.SessionConfig{Default: "decima", New: newAgent, ReplicaID: "r1"})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	rt := fleet.New(fleet.Config{HealthInterval: -1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer rt.Stop()
	if err := rt.AddReplica("r1", replica.Addr(), "", 0); err != nil {
		t.Fatal(err)
	}
	router, err := fleet.ListenAndServe("127.0.0.1:0", rt)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	for _, tc := range []struct{ name, addr string }{{"replica", replica.Addr()}, {"router", router.Addr()}} {
		t.Run(tc.name, func(t *testing.T) {
			cli, err := rpcsvc.Dial(tc.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			var resp rpcsvc.ScheduleResponse
			err = cli.RawCall(v1Method, &v1Request{TotalExecutors: executors}, &resp)
			if _, ok := err.(rpc.ServerError); !ok || !strings.Contains(err.Error(), "can't find method") {
				t.Fatalf("v1 call answered %v (%T), want net/rpc's can't-find-method error", err, err)
			}
			if rpcsvc.IsTransient(err) {
				t.Fatalf("v1 refusal classified transient: %v", err)
			}
			ss := &rpcsvc.SessionScheduler{Client: cli, OnError: func(e error) { t.Errorf("session: %v", e) }}
			defer ss.Close()
			if got := run(ss); got != want {
				t.Fatalf("session after the v1 refusal diverges from in-process:\n  got  %s\n  want %s", got, want)
			}
		})
	}
}
