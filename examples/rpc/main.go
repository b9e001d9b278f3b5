// RPC integration (the §6 scenario): start a scheduling service
// in-process, then drive a cluster simulation against it over TCP, exactly
// as a Spark master would consult the agent on every scheduling event.
//
// The driver uses the session protocol — OpenSession once, then one
// O(delta) Event per scheduling event against the server's persistent
// cluster mirror (which keeps the agent's embedding cache warm) — and then
// repeats the run with the same agent in-process to show the wire changes
// nothing: the two schedules must be identical, or the program fails.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/rpcsvc"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	const executors = 8

	// The service side: session-serving, minting one agent clone per
	// session from a shared base (as cmd/decima-server does).
	base := core.New(core.DefaultConfig(executors), rand.New(rand.NewSource(1)))
	newAgent := func(name string, seed int64) (scheduler.Scheduler, error) {
		return scheduler.New(name, scheduler.Options{Executors: executors, Seed: seed, Agent: base})
	}
	srv, err := rpcsvc.ListenAndServeSessions("127.0.0.1:0", rpcsvc.SessionConfig{Default: "decima", New: newAgent})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("decima service listening on %s\n", srv.Addr())

	// The cluster side: a simulated Spark master that asks the remote
	// service what to run at every scheduling event.
	cli, err := rpcsvc.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()

	jobs := workload.Batch(rand.New(rand.NewSource(2)), 6)

	var rpcErrs int
	session := &rpcsvc.SessionScheduler{Client: cli, OnError: func(error) { rpcErrs++ }}
	res := sim.New(sim.SparkDefaults(executors), workload.CloneAll(jobs), session, rand.New(rand.NewSource(3))).Run()
	if err := session.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("remote session: %d jobs, avg JCT %.1f s, makespan %.1f s, %d events, %d rpc errors\n",
		len(res.Completed), res.AvgJCT(), res.Makespan, res.Invocations, rpcErrs)

	// Same run with the agent the server's factory built, in this process.
	agent, err := newAgent("decima", session.Seed)
	if err != nil {
		log.Fatal(err)
	}
	local := sim.New(sim.SparkDefaults(executors), workload.CloneAll(jobs), scheduler.Sim(agent), rand.New(rand.NewSource(3))).Run()
	fmt.Printf("in-process:     %d jobs, avg JCT %.1f s, makespan %.1f s, %d events\n",
		len(local.Completed), local.AvgJCT(), local.Makespan, local.Invocations)

	if rpcErrs > 0 || res.Unfinished > 0 {
		log.Fatalf("remote run incomplete: %d rpc errors, %d jobs unfinished", rpcErrs, res.Unfinished)
	}
	if res.AvgJCT() != local.AvgJCT() || res.Makespan != local.Makespan || res.Invocations != local.Invocations {
		log.Fatal("remote session diverged from the in-process agent — they must produce identical schedules")
	}
	fmt.Println("the remote session and the in-process agent produced the identical schedule")
}
