package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/rpcsvc"
)

// servingSpec sizes one serving workload. Every load is closed loop: a
// client sends its next event only when the previous one is answered, one
// client per session, as a cluster master does.
type servingSpec struct {
	name      string
	clients   int
	executors int
	// servers is how many independent servers are hosted. With fleet set
	// they are replicas behind one fleet.Router, which every client dials;
	// otherwise client i dials server i mod servers directly.
	servers int
	fleet   bool
	// churn runs back-to-back short sessions (open → one batch of jobs →
	// close) drawn round-robin from a per-client pool of distinct batches;
	// otherwise each client drives one long session over a wave trace.
	churn bool
	jobs  int // per batch or wave
	pool  int // churn: distinct batches per client
	waves int // stream: waves per trace; a client that runs out starts over
	// warmEvents caps the discarded warm-up pass (per client), which is
	// sized in work, not time, so a slower system shows a longer set-up.
	warmEvents int
}

// Full-scale shapes. A wave or a batch of twenty jobs is the backlog the
// issue sized the ledger for; a wave is ≈3k events, a batch ≈1k.
var servingSpecs = map[string]servingSpec{
	"session-stream": {name: "session-stream", clients: 2, servers: 2, executors: 50, jobs: 20, waves: 60, warmEvents: 3000},
	"session-churn":  {name: "session-churn", clients: 2, servers: 1, executors: 10, churn: true, jobs: 20, pool: 32, warmEvents: 2000},
	"fleet-stream":   {name: "fleet-stream", clients: 2, servers: 2, executors: 50, fleet: true, jobs: 20, waves: 60, warmEvents: 3000},
}

// smoke shrinks a spec to test scale (≈20 jobs per trace).
func (s servingSpec) smoke() servingSpec {
	s.warmEvents = 50
	if s.churn {
		s.jobs, s.pool = 10, 2
	} else {
		s.jobs, s.waves = 4, 5
	}
	return s
}

// traces generates the spec's inputs from the seed: client c's i-th trace
// depends on (seed, c, i) only.
func (s servingSpec) traces(seed int64) [][]*trace {
	out := make([][]*trace, s.clients)
	for c := range out {
		if !s.churn {
			out[c] = []*trace{waveTrace(c, seed*1000003+int64(c), s.waves, s.jobs, s.executors)}
			continue
		}
		for i := 0; i < s.pool; i++ {
			id := c*s.pool + i
			out[c] = append(out[c], batchTrace(id, seed*1000003+int64(id), s.jobs, s.executors))
		}
	}
	return out
}

// stack is the system under test: the servers, and with fleet set a router
// in front of them, hosted in-process on TCP loopback as every serving bench
// in the tree is. Everything runs at the packages' shipping defaults.
type stack struct {
	addrs   []string // what client i dials is addrs[i%len(addrs)]
	servers []*rpcsvc.Server
	hosts   []*rpcHost // tapped replicas (traced runs)
	svcs    []*rpcsvc.Decima
	taps    []*tap
	router  *fleet.Router
	front   *fleet.Server
}

// startStack brings the listeners up. With tapped set every replica sits
// behind a tap; the end-to-end metrics are never measured that way.
func startStack(spec servingSpec, base *core.Agent, tapped bool) (*stack, error) {
	st := &stack{}
	var addrs []string
	for i := 0; i < spec.servers; i++ {
		cfg := rpcsvc.SessionConfig{
			Default:   "decima",
			ReplicaID: "r" + strconv.Itoa(i+1),
			New:       newSessionScheduler(base, spec.executors),
		}
		if !tapped {
			srv, err := rpcsvc.ListenAndServeSessions("127.0.0.1:0", cfg)
			if err != nil {
				st.close()
				return nil, err
			}
			st.servers = append(st.servers, srv)
			st.svcs = append(st.svcs, srv.Service())
			addrs = append(addrs, srv.Addr())
			continue
		}
		d := rpcsvc.NewDecimaSessions(cfg)
		tp := newTap(d, false)
		h, err := hostRPC(tp)
		if err != nil {
			d.Stop()
			st.close()
			return nil, err
		}
		st.hosts = append(st.hosts, h)
		st.svcs = append(st.svcs, d)
		st.taps = append(st.taps, tp)
		addrs = append(addrs, h.Addr())
	}
	st.addrs = addrs
	if spec.fleet {
		st.router = fleet.New(fleet.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
		for i, a := range addrs {
			if err := st.router.AddReplica("r"+strconv.Itoa(i+1), a, "", 0); err != nil {
				st.close()
				return nil, err
			}
		}
		st.router.Start()
		front, err := fleet.ListenAndServe("127.0.0.1:0", st.router)
		if err != nil {
			st.close()
			return nil, err
		}
		st.front = front
		st.addrs = []string{front.Addr()}
	}
	return st, nil
}

// close tears the stack down and waits for its goroutines.
func (st *stack) close() {
	if st.front != nil {
		st.front.Close()
	}
	if st.router != nil {
		st.router.Stop()
	}
	for _, s := range st.servers {
		s.Close()
	}
	for i, h := range st.hosts {
		h.Close()
		st.svcs[i].Stop()
	}
}

// serverStats sums the replicas' counters.
func (st *stack) serverStats() (shed, evictions uint64) {
	for _, d := range st.svcs {
		s := d.Stats()
		shed += s.Shed + s.DeadlineMiss
		evictions += s.EvictedLRU + s.EvictedIdle
	}
	return shed, evictions
}

// migrations scrapes the router's migration counter (0 without a router).
func (st *stack) migrations() (uint64, error) {
	if st.router == nil {
		return 0, nil
	}
	var buf bytes.Buffer
	st.router.WriteProm(&buf)
	var total uint64
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "fleet_migrations_total") {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseUint(f[len(f)-1], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("fleet_migrations_total: unparseable sample %q: %w", line, err)
		}
		total += v
	}
	return total, nil
}

// fleetKeys are session routing keys chosen so that client i's key is owned
// by replica r(i+1) on a two-replica ring: each client then exercises its
// own replica, and a run that found both on one replica is flagged.
func fleetKeys(clients int) []string {
	ring := fleet.NewRing(0)
	ring.Add("r1")
	ring.Add("r2")
	keys := make([]string, clients)
	for c := range keys {
		want := "r" + strconv.Itoa(c%2+1)
		for i := 0; ; i++ {
			if k := "bench-" + strconv.Itoa(c) + "-" + strconv.Itoa(i); ring.Owner(k) == want {
				keys[c] = k
				break
			}
		}
	}
	return keys
}

// session is one driven session's outcome plus what the oracle needs to
// find its reference.
type session struct {
	outcome
	trace   *trace
	cut     bool
	replica string
}

// verifySessions replays every session in-process under a scheduler built
// by mk with the given seed, cut at the same event where the session was
// cut, and demands the same outcome bit for bit. Sessions over the same
// trace cut at the same event share one replay. It returns the average JCT
// of each session that completed a job.
func verifySessions(mk schedulerFactory, seed int64, sessions []session) (jct []float64, err error) {
	type key struct{ trace, events int }
	memo := map[key]outcome{}
	for i, s := range sessions {
		k := key{s.trace.id, 0}
		if s.cut {
			k.events = s.events
		}
		ref, ok := memo[k]
		if !ok {
			if ref, err = reference(mk, s.trace, seed, k.events); err != nil {
				return nil, err
			}
			memo[k] = ref
		}
		if s.outcome != ref {
			return nil, fmt.Errorf("session %d (trace %d): events %d vs %d, actions %016x vs %016x, completions %016x vs %016x",
				i, s.trace.id, s.events, ref.events, s.digest, ref.digest, s.jct, ref.jct)
		}
		if s.done > 0 {
			jct = append(jct, s.avgJCT)
		}
	}
	return jct, nil
}

// client is one closed-loop load generator: its connection, its inputs and
// everything it observed.
type client struct {
	id    int // 1-based; doubles as the session seed and the span client id
	key   string
	cli   *rpcsvc.Client
	pool  []*trace
	spans *spanLog

	lat, open  []int64
	start, end time.Time
	sessions   []session
	stats      rpcsvc.ClientStatsSnapshot
	opsFailed  int // errored closes
	opsTried   int // closes attempted
	firstErr   error
}

func (c *client) newScheduler() *rpcsvc.SessionScheduler {
	return &rpcsvc.SessionScheduler{
		Client: c.cli,
		Seed:   int64(c.id),
		Key:    c.key,
		OnError: func(err error) {
			if c.firstErr == nil {
				c.firstErr = err
			}
		},
	}
}

func (c *client) closeSession(ss *rpcsvc.SessionScheduler) {
	st := ss.Stats()
	c.stats.Attempts += st.Attempts
	c.stats.Events += st.Events
	c.stats.Reopens += st.Reopens
	c.stats.Fallbacks += st.Fallbacks
	c.stats.Exhausted += st.Exhausted
	c.opsTried++
	if err := ss.Close(); err != nil {
		c.opsFailed++
		if c.firstErr == nil {
			c.firstErr = err
		}
	}
}

// drive runs the client's sessions back-to-back, round-robin over its pool
// (one long trace on the stream workloads, which no pass on this box gets
// to the end of), until the deadline passes or the event cap is reached.
// Whatever session is in flight at the cut is cut with it — it
// declines from then on, so the simulated run ends at once and identically
// to a reference cut at the same event.
func (c *client) drive(deadline time.Time, maxEvents, corruptAt int) {
	c.start = time.Now()
	defer func() { c.end = time.Now() }()
	budget := maxEvents
	for i := 0; ; i++ {
		tr := c.pool[i%len(c.pool)]
		ss := c.newScheduler()
		ts := newTimedSched(ss)
		ts.deadline, ts.maxEvents, ts.corruptAt = deadline, budget, corruptAt
		ts.open, ts.lat, ts.spans, ts.client = &c.open, &c.lat, c.spans, c.id
		corruptAt = -1 // only the first session is ever corrupted
		res := tr.run(ts)
		replica := ss.Replica()
		c.closeSession(ss)
		if ts.n > 0 { // a session cut before its first event served nothing
			c.sessions = append(c.sessions, session{outcome: outcomeOf(ts, res), trace: tr, cut: ts.cut, replica: replica})
		}
		if maxEvents > 0 {
			if budget -= ts.n; budget <= 0 {
				return
			}
		}
		if ts.cut {
			return
		}
	}
}

// pass says how one pass is driven: for budget of wall time when it is
// measured, or capped at maxEvents per client when it is a warm-up or a
// ladder rung.
type pass struct {
	budget    time.Duration
	maxEvents int
	corruptAt int // event index of client sessions' first action to flip; <0: none
	spans     *spanLog
}

// servingRun is one pass over a serving workload.
type servingRun struct {
	spec    servingSpec
	clients []*client
	events  int
	// wall is how long the clients drove their sessions: from the first
	// client's start to the last one's end.
	wall    time.Duration
	shed    uint64
	evicted uint64
	migr    uint64
}

// runServing dials the clients and drives them all concurrently until the
// pass's time is up or the per-client event cap is reached.
func runServing(spec servingSpec, st *stack, traces [][]*trace, ps pass) (*servingRun, error) {
	run := &servingRun{spec: spec}
	keys := make([]string, spec.clients)
	if spec.fleet {
		keys = fleetKeys(spec.clients)
	}
	for i := 0; i < spec.clients; i++ {
		cli, err := rpcsvc.Dial(st.addrs[i%len(st.addrs)])
		if err != nil {
			for _, c := range run.clients {
				c.cli.Close()
			}
			return nil, err
		}
		run.clients = append(run.clients, &client{id: i + 1, key: keys[i], cli: cli, pool: traces[i], spans: ps.spans})
	}
	defer func() {
		for _, c := range run.clients {
			c.cli.Close()
		}
	}()
	var deadline time.Time
	if ps.budget > 0 {
		deadline = time.Now().Add(ps.budget)
	}
	var wg sync.WaitGroup
	for _, c := range run.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.drive(deadline, ps.maxEvents, ps.corruptAt)
		}(c)
	}
	wg.Wait()
	first, last := run.clients[0].start, run.clients[0].end
	for _, c := range run.clients {
		for _, s := range c.sessions {
			run.events += s.events
		}
		if c.start.Before(first) {
			first = c.start
		}
		if c.end.After(last) {
			last = c.end
		}
	}
	run.wall = last.Sub(first)
	run.shed, run.evicted = st.serverStats()
	var err error
	run.migr, err = st.migrations()
	return run, err
}

// samples pools the clients' event and open latency samples, sorted, in µs.
func (r *servingRun) samples() (lat, open []float64) {
	var ls, ops [][]int64
	for _, c := range r.clients {
		ls, ops = append(ls, c.lat), append(ops, c.open)
	}
	return pool(ls...), pool(ops...)
}

// tally adds up the operations attempted and failed across clients (client
// Attempts and session closes; Attempts − Events, Fallbacks, Exhausted and
// errored closes fail) and reports the first client-side error, a clean-run violation or a fleet run
// that missed a replica. It needs no reference run.
func (r *servingRun) tally() (attempted, failed int, err error) {
	replicas := map[string]bool{}
	for _, c := range r.clients {
		st := c.stats
		attempted += int(st.Attempts) + c.opsTried
		failed += int(st.Attempts-st.Events) + int(st.Fallbacks) + int(st.Exhausted) + c.opsFailed
		if c.firstErr != nil && err == nil {
			err = fmt.Errorf("client %d: %w", c.id, c.firstErr)
		}
		for _, s := range c.sessions {
			replicas[s.replica] = true
		}
	}
	if r.spec.fleet && len(replicas) != 2 && err == nil {
		err = fmt.Errorf("fleet run used replicas %v, want both r1 and r2", replicas)
	}
	if r.shed+r.evicted+r.migr != 0 && err == nil {
		err = fmt.Errorf("server shed %d, evicted %d, router migrated %d: the workload must run clean", r.shed, r.evicted, r.migr)
	}
	return attempted, failed, err
}

// verify is the correctness oracle: every driven session must equal, bit
// for bit, the in-process run of the same trace cut at the same event —
// event count, action digest and completion-time digest. It returns the
// mean average-JCT of the simulated clusters the served decisions drove.
func (r *servingRun) verify(base *core.Agent) (avgJCT float64, err error) {
	mk := newSessionScheduler(base, r.spec.executors)
	jcts := make([][]float64, len(r.clients))
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	for i, c := range r.clients {
		wg.Add(1)
		go func(i int, c *client) { // the clients' references are independent replays
			defer wg.Done()
			if jcts[i], errs[i] = verifySessions(mk, int64(c.id), c.sessions); errs[i] != nil {
				errs[i] = fmt.Errorf("client %d: served run differs from in-process reference: %w", c.id, errs[i])
			}
		}(i, c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	var jct []float64
	for i := range jcts {
		jct = append(jct, jcts[i]...)
	}
	return mean(jct), nil
}

// servingSetup is everything that must exist before the measured pass:
// inputs, model, listeners and a warmed-up stack.
type servingSetup struct {
	traces [][]*trace
	base   *core.Agent
	stack  *stack
	genMS  float64
}

// setUpServing generates the traces, builds the agent, brings the listeners
// up and runs the discarded warm-up pass.
func setUpServing(spec servingSpec, seed int64, tapped bool) (*servingSetup, error) {
	t0 := time.Now()
	su := &servingSetup{traces: spec.traces(seed)}
	su.genMS = float64(time.Since(t0)) / 1e6
	su.base = baseAgent(spec.executors)
	st, err := startStack(spec, su.base, tapped)
	if err != nil {
		return nil, err
	}
	su.stack = st
	warm, err := runServing(spec, st, su.traces, pass{maxEvents: spec.warmEvents, corruptAt: -1})
	if err == nil {
		_, _, err = warm.tally()
	}
	if err != nil {
		st.close()
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	return su, nil
}
