package fleet_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/rpcsvc"
	"repro/internal/scheduler"
	"repro/internal/sim"
)

// breakerState reads one replica's breaker state off the /fleet topology.
func breakerState(t *testing.T, rt *fleet.Router, id string) string {
	t.Helper()
	for _, ri := range rt.Info().Replicas {
		if ri.ID == id {
			return ri.Breaker
		}
	}
	t.Fatalf("replica %q not in fleet info", id)
	return ""
}

// eventState is a minimal schedulable state for driving sessions by hand.
func eventState() *sim.State {
	return &sim.State{
		Jobs:           nil,
		FreeExecutors:  []*sim.Executor{{ID: 0, Mem: 1}},
		TotalExecutors: 2,
	}
}

// TestRouterBreakerTripsOnOverload drives the router-level overload story:
// a replica that sheds consecutively trips its circuit breaker, an open
// breaker sheds at the router (the replica sees nothing), the breaker state
// is visible on /fleet and /metrics, and one successful forward closes the
// circuit again.
func TestRouterBreakerTripsOnOverload(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv, err := rpcsvc.ListenAndServeSessions("127.0.0.1:0", rpcsvc.SessionConfig{
		Default:     "fifo",
		MaxInflight: 1,
		IdleTimeout: -1,
		ReplicaID:   "r1",
		New: func(name string, seed int64) (scheduler.Scheduler, error) {
			if name == "block" {
				return scheduler.Func(func(s *sim.State) (*sim.Action, error) {
					entered <- struct{}{}
					<-release
					return nil, nil
				}), nil
			}
			return scheduler.New(name, scheduler.Options{Seed: seed})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	rt, cli := startFleet(t, fleet.Config{
		HealthInterval:   -1, // no probes: only forward outcomes drive state
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // recovery below must come from recordOK, not the cooldown
	}, map[string]*rpcsvc.Server{"r1": srv})

	blockSess, err := cli.OpenSession(&rpcsvc.OpenRequest{Scheduler: "block", TotalExecutors: 2})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cli.OpenSession(&rpcsvc.OpenRequest{TotalExecutors: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := breakerState(t, rt, "r1"); got != "closed" {
		t.Fatalf("fresh replica breaker %q, want closed", got)
	}

	done := make(chan error, 1)
	go func() {
		_, err := blockSess.Event(eventState())
		done <- err
	}()
	<-entered // the replica's only admission slot is now parked

	// Two consecutive overload answers reach the client verbatim and trip
	// the breaker at the threshold.
	for i := 0; i < 2; i++ {
		if _, err := sess.Event(eventState()); !rpcsvc.IsOverloaded(err) {
			t.Fatalf("shed %d not forwarded verbatim as overloaded: %v", i, err)
		}
	}
	if got := breakerState(t, rt, "r1"); got != "open" {
		t.Fatalf("breaker %q after %d consecutive overloads, want open", got, 2)
	}

	// Open breaker: the router sheds locally; the replica's own shed counter
	// must not move.
	shedAtReplica := srv.Stats().Shed
	if _, err := sess.Event(eventState()); !rpcsvc.IsOverloaded(err) {
		t.Fatalf("router-side shed not typed overloaded: %v", err)
	}
	if got := srv.Stats().Shed; got != shedAtReplica {
		t.Fatalf("open breaker still forwarded to the replica: shed %d -> %d", shedAtReplica, got)
	}

	var prom strings.Builder
	rt.WriteProm(&prom)
	for _, want := range []string{
		`fleet_breaker_state{replica="r1"} 1`, // 1 = open
		"fleet_shed_total 1",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, prom.String())
		}
	}

	// Congestion clears: the parked event completes, its success closes the
	// breaker (recordOK — the cooldown is an hour), and traffic flows again.
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("parked event failed after release: %v", err)
	}
	if got := breakerState(t, rt, "r1"); got != "closed" {
		t.Fatalf("breaker %q after a successful forward, want closed", got)
	}
	if _, err := sess.Event(eventState()); err != nil {
		t.Fatalf("event after breaker closed: %v", err)
	}
}
