package fleet_test

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/rpcsvc"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// quiet drops the router's lifecycle logging in tests.
func quiet() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// agentFactory mints bit-identical greedy decima agents — the determinism
// that makes a migrated session's decisions bitwise equal to an
// uninterrupted run's (same contract as the rpcsvc robustness tests).
func agentFactory(executors int) func(name string, seed int64) (scheduler.Scheduler, error) {
	return func(name string, seed int64) (scheduler.Scheduler, error) {
		a := core.New(core.DefaultConfig(executors), rand.New(rand.NewSource(77)))
		a.Greedy = true
		return a, nil
	}
}

func runKey(r *sim.Result) string {
	return fmt.Sprintf("%v/%v/%v/%d/%d", r.AvgJCT(), r.Makespan, r.JobSeconds, r.Invocations, len(r.Completed))
}

// startReplica brings one in-process decima-server replica up.
func startReplica(t testing.TB, id string, executors int) *rpcsvc.Server {
	t.Helper()
	srv, err := rpcsvc.ListenAndServeSessions("127.0.0.1:0", rpcsvc.SessionConfig{
		Default:     "decima",
		New:         agentFactory(executors),
		ReplicaID:   id,
		IdleTimeout: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// startFleet wires replicas into a served router and returns the router and
// a client dialed at the router's address.
func startFleet(t testing.TB, cfg fleet.Config, reps map[string]*rpcsvc.Server) (*fleet.Router, *rpcsvc.Client) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quiet()
	}
	rt := fleet.New(cfg)
	t.Cleanup(rt.Stop)
	for id, srv := range reps {
		if err := rt.AddReplica(id, srv.Addr(), "", 0); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := fleet.ListenAndServe("127.0.0.1:0", rt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	cli, err := rpcsvc.Dial(fs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return rt, cli
}

// chaos kills the replica hosting the session at event killAt and drains
// the (new) host at event drainAt, from inside the run — the fleet
// acceptance scenario.
type chaos struct {
	inner           *rpcsvc.SessionScheduler
	rt              *fleet.Router
	reps            map[string]*rpcsvc.Server
	killAt, drainAt int
	n               int
	killed, drained string
	t               *testing.T
}

func (c *chaos) Schedule(s *sim.State) *sim.Action {
	c.n++
	if c.n == c.killAt {
		id := c.inner.Replica()
		if id == "" {
			c.t.Fatal("no replica recorded before kill point")
		}
		c.reps[id].Close() // hard kill: listener gone, every connection severed
		c.killed = id
	}
	if c.n == c.drainAt {
		id := c.inner.Replica()
		if id == "" || id == c.killed {
			c.t.Fatalf("session on %q at drain point (killed %q): failover never happened", id, c.killed)
		}
		if _, err := c.rt.DrainReplica(id); err != nil {
			c.t.Fatal(err)
		}
		c.drained = id
	}
	return c.inner.Schedule(s)
}

// TestFleetEquivalenceUnderKillAndDrain is the tentpole acceptance bar: a
// sharded run that loses its replica to a hard kill mid-run and is drained
// off its second replica must produce a schedule bitwise identical to the
// unsharded reference. Both recoveries ride the client's snapshot reopen;
// deterministic agents make the decisions identical.
func TestFleetEquivalenceUnderKillAndDrain(t *testing.T) {
	const executors = 6
	cfg := sim.SparkDefaults(executors)
	jobs := workload.Batch(rand.New(rand.NewSource(31)), 6)

	local, err := agentFactory(executors)("decima", 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := sim.New(cfg, workload.CloneAll(jobs), scheduler.Sim(local), rand.New(rand.NewSource(8))).Run()

	reps := map[string]*rpcsvc.Server{
		"r1": startReplica(t, "r1", executors),
		"r2": startReplica(t, "r2", executors),
		"r3": startReplica(t, "r3", executors),
	}
	rt, cli := startFleet(t, fleet.Config{HealthInterval: -1, DownAfter: 1}, reps)

	errs := 0
	inner := &rpcsvc.SessionScheduler{
		Client: cli, Name: "decima", Key: "workload-31",
		Backoff: time.Millisecond,
		OnError: func(error) { errs++ },
	}
	defer inner.Close()
	ch := &chaos{inner: inner, rt: rt, reps: reps, killAt: 12, drainAt: 28, t: t}
	res := sim.New(cfg, workload.CloneAll(jobs), ch, rand.New(rand.NewSource(8))).Run()

	if errs == 0 {
		t.Fatal("neither kill nor drain surfaced — test exercised nothing")
	}
	if ch.killed == "" || ch.drained == "" || ch.killed == ch.drained {
		t.Fatalf("chaos incomplete: killed=%q drained=%q", ch.killed, ch.drained)
	}
	if final := inner.Replica(); final == ch.killed || final == ch.drained {
		t.Fatalf("session ended on %q, which was killed (%q) or drained (%q)", final, ch.killed, ch.drained)
	}
	cs := inner.Stats()
	if cs.Evicted < 1 {
		t.Fatalf("client stats %+v: kill failover never classified as eviction", cs)
	}
	if cs.WrongShard < 1 {
		t.Fatalf("client stats %+v: drain migration never classified as wrong shard", cs)
	}
	if runKey(ref) != runKey(res) {
		t.Fatalf("sharded run diverges from unsharded reference:\n  reference %s\n  fleet     %s", runKey(ref), runKey(res))
	}
	if res.Unfinished != 0 || res.Deadlock {
		t.Fatalf("fleet run incomplete: %+v", res)
	}

	var buf bytes.Buffer
	rt.WriteProm(&buf)
	prom := buf.String()
	for _, want := range []string{
		`fleet_migrations_total{reason="drain"} 1`,
		`fleet_migrations_total{reason="failover"} 1`,
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("router metrics missing %q:\n%s", want, prom)
		}
	}
}

// TestFleetMetricsAndAdmin pins the observability plane's content: the
// Prometheus exposition names, the /fleet topology report, and /drain's
// effect on /healthz.
func TestFleetMetricsAndAdmin(t *testing.T) {
	const executors = 4
	reps := map[string]*rpcsvc.Server{"r1": startReplica(t, "r1", executors)}
	rt, cli := startFleet(t, fleet.Config{HealthInterval: -1}, reps)

	cfg := sim.SparkDefaults(executors)
	jobs := workload.Batch(rand.New(rand.NewSource(9)), 3)
	ss := &rpcsvc.SessionScheduler{Client: cli, Name: "decima", Key: "k1"}
	res := sim.New(cfg, workload.CloneAll(jobs), ss, rand.New(rand.NewSource(2))).Run()
	if res.Unfinished != 0 || res.Deadlock {
		t.Fatalf("fleet-served run incomplete: %+v", res)
	}

	admin := httptest.NewServer(fleet.NewAdminHandler(rt))
	defer admin.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := admin.Client().Get(admin.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, prom := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		`fleet_replica_up{replica="r1"} 1`,
		`fleet_replica_sessions{replica="r1"} 1`,
		`fleet_replica_events_total{replica="r1"}`,
		`fleet_replica_events_per_second{replica="r1"}`,
		`fleet_replica_decide_latency_seconds_bucket{replica="r1",le="+Inf"}`,
		`fleet_sessions 1`,
		"fleet_opens_total 1",
		`fleet_migrations_total{reason="drain"} 0`,
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, prom)
		}
	}
	if !strings.Contains(prom, fmt.Sprintf("fleet_events_total %d", res.Invocations)) {
		t.Fatalf("/metrics fleet_events_total != %d invocations:\n%s", res.Invocations, prom)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get("/fleet"); code != 200 || !strings.Contains(body, `"id":"r1"`) {
		t.Fatalf("/fleet = %d %q", code, body)
	}

	// Drain the only replica through the admin surface: its session
	// migrates and the router reports itself degraded.
	if code, body := get("/drain?replica=r1"); code != 200 || !strings.Contains(body, `"migrated":1`) {
		t.Fatalf("/drain = %d %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"status":"degraded"`) {
		t.Fatalf("/healthz after drain = %d %q", code, body)
	}
	if code, body := get("/drain?replica=nope"); code != 404 {
		t.Fatalf("/drain unknown replica = %d %q", code, body)
	}
	ss.Close()
}

// TestReplicaDrainPropagates pins the SIGTERM handshake: a replica that
// turns draining on its own (decima-server on SIGTERM) is noticed by the
// router's health probe, its sessions migrate, and their next event answers
// wrong-shard so clients reopen elsewhere.
func TestReplicaDrainPropagates(t *testing.T) {
	const executors = 4
	r1 := startReplica(t, "r1", executors)
	r2 := startReplica(t, "r2", executors)
	reps := map[string]*rpcsvc.Server{"r1": r1, "r2": r2}
	byAddr := map[string]*rpcsvc.Server{r1.Addr(): r1, r2.Addr(): r2}

	rt, cli := startFleet(t, fleet.Config{
		HealthInterval: 5 * time.Millisecond,
		UpAfter:        1,
		Probe: func(addr, opsAddr string) (fleet.ProbeResult, error) {
			return fleet.ProbeResult{Draining: byAddr[addr].Service().Draining()}, nil
		},
	}, reps)
	rt.Start()

	resp, err := cli.OpenRPC(&rpcsvc.OpenRequest{Key: "k", TotalExecutors: executors})
	if err != nil {
		t.Fatal(err)
	}
	host := reps[resp.Replica]
	if host == nil {
		t.Fatalf("open reported unknown replica %q", resp.Replica)
	}
	host.Service().SetDraining(true)

	// Events that reach the replica before the drain propagates succeed, so
	// the next one carries the next seq: a repeated seq would be a gap, and
	// the router would drop the route before it could migrate the session.
	deadline := time.Now().Add(5 * time.Second)
	for seq := uint64(1); ; {
		_, err = cli.EventRPC(&rpcsvc.EventRequest{SID: resp.SID, Seq: seq})
		if rpcsvc.IsWrongShard(err) {
			break
		}
		if err == nil {
			seq++
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain never propagated; last event error: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// New opens for the same key land on the other replica.
	resp2, err := cli.OpenRPC(&rpcsvc.OpenRequest{Key: "k", TotalExecutors: executors})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Replica == resp.Replica {
		t.Fatalf("reopen landed on draining replica %q", resp2.Replica)
	}
}

// TestFleetSessionScheduler pins that a plain SessionScheduler pointed at
// the router behaves exactly as against a single server when nothing fails.
func TestFleetSessionScheduler(t *testing.T) {
	const executors = 5
	cfg := sim.SparkDefaults(executors)
	jobs := workload.Batch(rand.New(rand.NewSource(21)), 4)

	local, err := agentFactory(executors)("decima", 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := sim.New(cfg, workload.CloneAll(jobs), scheduler.Sim(local), rand.New(rand.NewSource(6))).Run()

	reps := map[string]*rpcsvc.Server{
		"r1": startReplica(t, "r1", executors),
		"r2": startReplica(t, "r2", executors),
	}
	_, cli := startFleet(t, fleet.Config{HealthInterval: -1}, reps)
	ss := &rpcsvc.SessionScheduler{Client: cli, Name: "decima"}
	defer ss.Close()
	res := sim.New(cfg, workload.CloneAll(jobs), ss, rand.New(rand.NewSource(6))).Run()
	if runKey(ref) != runKey(res) {
		t.Fatalf("fleet-served run diverges from local reference:\n  local %s\n  fleet %s", runKey(ref), runKey(res))
	}
}
