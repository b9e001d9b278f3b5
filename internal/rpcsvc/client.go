package rpcsvc

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/rpc"
	"sync"
	"time"

	"repro/internal/scheduler"
	"repro/internal/sim"
)

// Client is a connection to a Decima scheduling service. It can survive the
// connection: Redial (used by the self-healing SessionScheduler) replaces a
// dead transport with a fresh dial to the same address, so one Client value
// stays valid across server restarts.
type Client struct {
	addr string
	// dial, when non-nil, replaces net.Dial for the initial connection and
	// every redial — the seam the chaos harness injects its fault-wrapping
	// dialer through (see DialWith).
	dial func(addr string) (net.Conn, error)

	mu  sync.Mutex
	rpc *rpc.Client
	gen uint64 // bumped per redial; guards against concurrent double-redials
}

// Dial connects to a service at addr.
func Dial(addr string) (*Client, error) {
	c, err := rpc.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{addr: addr, rpc: c}, nil
}

// DialWith connects like Dial but through a custom dialer, which also
// services every subsequent Redial. The chaos harness uses it to interpose
// fault-injecting connections without the client knowing.
func DialWith(addr string, dial func(addr string) (net.Conn, error)) (*Client, error) {
	conn, err := dial(addr)
	if err != nil {
		return nil, err
	}
	return &Client{addr: addr, dial: dial, rpc: rpc.NewClient(conn)}, nil
}

// conn returns the current transport and its generation.
func (c *Client) conn() (*rpc.Client, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rpc, c.gen
}

// generation returns the current transport generation (see redialFrom).
func (c *Client) generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// call performs one RPC on the current transport.
func (c *Client) call(method string, args, reply any) error {
	rc, _ := c.conn()
	return rc.Call(method, args, reply)
}

// Redial replaces the transport with a fresh dial (unless a concurrent
// redial already did). A fleet router's health loop uses it to resurrect a
// replica connection once the replica answers probes again.
func (c *Client) Redial() error { return c.redialFrom(c.generation()) }

// redialFrom replaces the transport with a fresh dial, but only if the
// connection is still the one observed at generation gen — when several
// goroutines share a Client and all hit the same dead transport, exactly one
// replacement happens and the rest reuse it.
func (c *Client) redialFrom(gen uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen != gen {
		return nil // someone already replaced the transport
	}
	if c.addr == "" {
		return errors.New("rpcsvc: client has no dial address")
	}
	var nc *rpc.Client
	if c.dial != nil {
		conn, err := c.dial(c.addr)
		if err != nil {
			return err
		}
		nc = rpc.NewClient(conn)
	} else {
		var err error
		nc, err = rpc.Dial("tcp", c.addr)
		if err != nil {
			return err
		}
	}
	c.rpc.Close()
	c.rpc = nc
	c.gen++
	return nil
}

// OpenSession establishes a scheduling session on the server and returns
// the client-side handle that tracks what the server has seen, so each
// Event ships only the delta.
func (c *Client) OpenSession(req *OpenRequest) (*Session, error) {
	resp, err := c.OpenRPC(req)
	if err != nil {
		return nil, err
	}
	return &Session{c: c, sid: resp.SID, replica: resp.Replica, total: req.TotalExecutors, shadow: make(map[int]*shadowJob)}, nil
}

// OpenRPC, EventRPC and CloseRPC perform raw single round trips of the
// session protocol, without client-side shadow state. They exist for
// proxies — the fleet router forwards requests verbatim (SIDs rewritten)
// and must not diff or commit anything.

// OpenRPC sends one Open request as-is.
func (c *Client) OpenRPC(req *OpenRequest) (*OpenResponse, error) {
	var resp OpenResponse
	if err := c.call("Decima.Open", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// EventRPC sends one Event request as-is.
func (c *Client) EventRPC(req *EventRequest) (*EventResponse, error) {
	var resp EventResponse
	if err := c.call("Decima.Event", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// CloseRPC sends one Close request as-is.
func (c *Client) CloseRPC(req *CloseRequest) error {
	var resp CloseResponse
	return c.call("Decima.Close", req, &resp)
}

// Close terminates the connection.
func (c *Client) Close() error {
	rc, _ := c.conn()
	return rc.Close()
}

// shadowStage mirrors the per-stage counters the server knows.
type shadowStage struct {
	launched, done, parents, running int
}

// shadowJob mirrors the per-job state the server knows.
type shadowJob struct {
	executors, limit int
	stages           []shadowStage
}

// Session is the client half of one scheduling session. It keeps a
// shadow copy of the state the server has acknowledged; Event diffs the
// observed cluster state against it and sends only the changes. Not safe
// for concurrent use — one session drives one cluster's event stream.
type Session struct {
	c       *Client
	sid     uint64
	replica string
	seq     uint64
	total   int // last executor count the server acknowledged
	shadow  map[int]*shadowJob

	// Deadline, when positive, is attached to every Event as the server-side
	// overload budget (EventRequest.Deadline). Zero sends the pre-overload
	// wire form.
	Deadline time.Duration
}

// SID returns the server-assigned session id.
func (s *Session) SID() uint64 { return s.sid }

// Replica returns the identity of the server instance that opened the
// session ("" on servers predating replica identity).
func (s *Session) Replica() string { return s.replica }

// Event sends the delta between st and the last acknowledged state, and
// resolves the server's decision against st. The shadow advances only on a
// successful round trip, so a failed call leaves the session consistent
// for the error handler to observe.
func (s *Session) Event(st *sim.State) (*sim.Action, error) {
	req := s.delta(st)
	var resp EventResponse
	if err := s.c.call("Decima.Event", req, &resp); err != nil {
		return nil, err
	}
	s.commit(st, req.Seq)
	return ActionFromResponse(&resp.ScheduleResponse, st)
}

// Close releases the server-side session.
func (s *Session) Close() error {
	var resp CloseResponse
	return s.c.call("Decima.Close", &CloseRequest{SID: s.sid}, &resp)
}

// delta builds the O(changes) event request for the observed state.
func (s *Session) delta(st *sim.State) *EventRequest {
	req := &EventRequest{
		SID:        s.sid,
		Seq:        s.seq + 1,
		Time:       st.Time,
		JobSeconds: st.JobSeconds,
		Order:      make([]int, len(st.Jobs)),
		Deadline:   s.Deadline,
	}
	if st.TotalExecutors != s.total {
		// Executor-pool delta (churn, late arrivals); 0 means unchanged.
		req.TotalExecutors = st.TotalExecutors
	}
	jobIdx := make(map[*sim.JobState]int, len(st.Jobs))
	for i, j := range st.Jobs {
		jobIdx[j] = i
		req.Order[i] = j.Job.ID
		sh := s.shadow[j.Job.ID]
		if sh == nil {
			req.NewJobs = append(req.NewJobs, jobInfo(j))
			continue
		}
		d := JobDelta{ID: j.Job.ID, Executors: j.Executors, Limit: j.Limit}
		changed := sh.executors != j.Executors || sh.limit != j.Limit
		for si, stg := range j.Stages {
			if sh.stages[si] != (shadowStage{stg.TasksLaunched, stg.TasksDone, stg.ParentsDone, stg.Running}) {
				d.Stages = append(d.Stages, StageDelta{
					Stage:         si,
					TasksLaunched: stg.TasksLaunched,
					TasksDone:     stg.TasksDone,
					ParentsDone:   stg.ParentsDone,
					Running:       stg.Running,
				})
			}
		}
		if changed || len(d.Stages) > 0 {
			req.Deltas = append(req.Deltas, d)
		}
	}
	for _, e := range st.FreeExecutors {
		local := -1
		if e.BoundTo != nil {
			if _, ok := jobIdx[e.BoundTo]; ok {
				local = e.BoundTo.Job.ID
			}
		}
		req.FreeExecutors = append(req.FreeExecutors, ExecutorInfo{ID: e.ID, Class: e.Class, Mem: e.Mem, LocalJob: local})
	}
	return req
}

// commit advances the shadow to st after the server acknowledged seq.
func (s *Session) commit(st *sim.State, seq uint64) {
	s.seq = seq
	s.total = st.TotalExecutors
	live := make(map[int]bool, len(st.Jobs))
	for _, j := range st.Jobs {
		live[j.Job.ID] = true
		sh := s.shadow[j.Job.ID]
		if sh == nil {
			sh = &shadowJob{stages: make([]shadowStage, len(j.Stages))}
			s.shadow[j.Job.ID] = sh
		}
		sh.executors, sh.limit = j.Executors, j.Limit
		for si, stg := range j.Stages {
			sh.stages[si] = shadowStage{stg.TasksLaunched, stg.TasksDone, stg.ParentsDone, stg.Running}
		}
	}
	for id := range s.shadow {
		if !live[id] {
			delete(s.shadow, id)
		}
	}
}

// jobInfo converts one job's state to the full wire form.
func jobInfo(j *sim.JobState) JobInfo {
	ji := JobInfo{ID: j.Job.ID, Arrival: j.Job.Arrival, Executors: j.Executors, Limit: j.Limit}
	for _, st := range j.Stages {
		ji.Stages = append(ji.Stages, StageInfo{
			ID:            st.Stage.ID,
			NumTasks:      st.Stage.NumTasks,
			TaskDuration:  st.Stage.TaskDuration,
			MemReq:        st.Stage.MemReq,
			CPUReq:        st.Stage.CPUReq,
			Parents:       st.Stage.Parents,
			Children:      st.Stage.Children,
			TasksLaunched: st.TasksLaunched,
			TasksDone:     st.TasksDone,
			ParentsDone:   st.ParentsDone,
			Running:       st.Running,
		})
	}
	return ji
}

// DefaultSessionRetries is the per-event attempt budget of a
// SessionScheduler when MaxRetries is zero.
const DefaultSessionRetries = 4

// DefaultSessionBackoff is the initial retry backoff ceiling of a
// SessionScheduler when Backoff is zero; the ceiling doubles per backoff
// within one event and every sleep is a full-jitter draw below it.
const DefaultSessionBackoff = 25 * time.Millisecond

// DefaultSessionMaxBackoff caps the doubling backoff ceiling when
// MaxBackoff is zero, so a long outage retries steadily instead of sleeping
// into minutes.
const DefaultSessionMaxBackoff = 2 * time.Second

// SessionScheduler adapts the client to sim.Scheduler over the session
// protocol — a local simulation's scheduling events are answered by the
// remote Decima service, as Spark's DAG schedulers consult the agent in
// §6.1. It opens a session lazily on the first scheduling event (using
// the cluster constants observed there) and then ships O(delta) event
// requests, letting the server keep its mirror — and the agent its
// embedding cache — warm across the whole run. Call Close when the run
// ends to release the server-side session.
//
// The scheduler self-heals. Within one scheduling event it classifies
// failures with the typed-error predicates and recovers in place:
//
//   - eviction / seq gap (the server dropped the session — LRU bound, idle
//     sweep, restart): reopen from the client snapshot. A fresh session's
//     first delta resends every in-system job in full, re-seeding the
//     server-side mirror through the ordinary delta/commit path.
//   - wrong shard (a fleet router migrated the session off its replica —
//     drain or replica loss): same reopen, immediately and without backoff;
//     the reopened session routes to the session key's new owner.
//   - replica draining (an Open hit a server that is shutting down): back
//     off and retry — behind a router the retry re-routes, on a single
//     address a replacement process typically takes over.
//   - overloaded (the server shed the request before touching the session —
//     admission gate or deadline budget): back off with jitter and resend
//     the identical event on the same connection. No redial — the transport
//     is healthy — and no reopen: shedding is pre-mutation, the session and
//     its seq are intact.
//   - transient transport failure (connection died, server restarting):
//     redial the same address with backoff and reopen.
//   - anything else (a fatal application error — unknown scheduler name,
//     malformed request): no retry; the event falls through to Fallback.
//
// Every backoff sleep is a full-jitter draw: uniform in (0, ceiling), with
// the ceiling doubling per sleep up to MaxBackoff. Jitter desynchronises
// the retry herd a fleet-wide drain or overload would otherwise create —
// with deterministic sleeps, every client that failed together retries
// together, forever. The draws come from a rand seeded with Seed, so runs
// are reproducible.
//
// When the attempt budget runs out — MaxRetries attempts, or the MaxElapsed
// wall-clock cap if one is set — the event fails with ErrRetriesExhausted
// (delivered to OnError) and the scheduler enters degraded mode: every
// subsequent event probes the server exactly once (no backoff) and
// otherwise decides locally via Fallback, so a run keeps making progress
// while the server is down and transparently returns to remote decisions
// when it comes back.
type SessionScheduler struct {
	Client *Client
	// Name selects the server-side policy from the scheduler registry;
	// empty uses the server's default.
	Name string
	// Seed seeds the session's scheduler.
	Seed int64
	// Key is the session routing key a fleet router consistent-hashes onto
	// a replica; reopens carry the same key, so placement is sticky while
	// the replica set is stable. Empty lets the router mint one per open.
	Key string
	// Fallback names a registry scheduler (internal/scheduler) to decide
	// locally when the server is unreachable or answers fatally; empty
	// declines instead (executors stay idle until the server heals).
	Fallback string
	// MaxRetries bounds attempts per scheduling event (0 selects
	// DefaultSessionRetries; negative disables retrying).
	MaxRetries int
	// Backoff is the initial backoff ceiling (0 selects
	// DefaultSessionBackoff). The ceiling doubles per backoff within one
	// event; each sleep is a full-jitter draw below the ceiling.
	Backoff time.Duration
	// MaxBackoff caps the doubling ceiling (0 selects
	// DefaultSessionMaxBackoff).
	MaxBackoff time.Duration
	// MaxElapsed, when positive, caps the wall-clock one scheduling event may
	// spend retrying; once spent the event fails with ErrRetriesExhausted
	// even if attempts remain. Zero means attempts alone bound the event.
	MaxElapsed time.Duration
	// Deadline, when positive, rides on every Open and Event as the
	// server-side overload budget: a server that cannot start the decision
	// within it sheds with ErrOverloaded instead of queueing the request.
	Deadline time.Duration
	// Record opts every session (including reopens) into server-side
	// trajectory recording for the online learning loop. Servers without a
	// record sink ignore it; decisions are bit-identical either way.
	Record bool
	// OnError, when set, receives every failed attempt's error.
	OnError func(error)

	sess     *Session
	opened   bool // a session existed before: the next open is a reopen
	degraded bool
	fb       scheduler.Scheduler
	fbBroken bool
	stats    ClientStats

	// Test seams, nil in production: rng draws jitter (lazily seeded from
	// Seed), now/sleep replace the clock so backoff tests are deterministic
	// and instant.
	rng   func() float64
	now   func() time.Time
	sleep func(time.Duration)
}

// Stats snapshots the scheduler's recovery counters.
func (r *SessionScheduler) Stats() ClientStatsSnapshot { return r.stats.snapshot() }

// Replica returns the identity of the replica serving the current session
// ("" before the first open or while the session is torn down).
func (r *SessionScheduler) Replica() string {
	if r.sess == nil {
		return ""
	}
	return r.sess.Replica()
}

// Schedule implements sim.Scheduler over the session protocol with the
// recovery ladder described on the type.
func (r *SessionScheduler) Schedule(s *sim.State) *sim.Action {
	attempts := r.MaxRetries
	switch {
	case attempts == 0:
		attempts = DefaultSessionRetries
	case attempts < 0:
		attempts = 1
	}
	if r.degraded {
		attempts = 1 // probe once per event while degraded
	}
	ceiling := r.Backoff
	if ceiling <= 0 {
		ceiling = DefaultSessionBackoff
	}
	maxCeiling := r.MaxBackoff
	if maxCeiling <= 0 {
		maxCeiling = DefaultSessionMaxBackoff
	}
	start := r.clock()
	var lastErr error
	for a := 0; a < attempts; a++ {
		if r.MaxElapsed > 0 && a > 0 && r.clock().Sub(start) >= r.MaxElapsed {
			break // wall budget spent: exhausted even with attempts left
		}
		gen := r.Client.generation()
		r.stats.Attempts.Add(1)
		act, err := r.eventOnce(s)
		if err == nil {
			r.degraded = false
			r.stats.Events.Add(1)
			return act
		}
		lastErr = err
		if r.OnError != nil {
			r.OnError(err)
		}
		switch {
		case IsSessionEvicted(err) || IsSeqGap(err):
			// Reopen from the client snapshot on the next attempt; no
			// backoff — the server is alive, it just lost the session.
			r.stats.Evicted.Add(1)
			r.sess = nil
		case IsWrongShard(err):
			// A router migrated the session (drain, replica loss): reopen
			// immediately, the reopen routes to the new owner.
			r.stats.WrongShard.Add(1)
			r.sess = nil
		case IsReplicaDraining(err):
			// The server answered, so the transport is fine — no redial;
			// back off and retry, a replacement or re-route takes over.
			r.stats.Draining.Add(1)
			r.sess = nil
			if r.degraded {
				break
			}
			ceiling = r.backoff(ceiling, maxCeiling)
		case IsOverloaded(err):
			// The server shed before touching the session: back off and
			// resend the identical event. No redial (transport is healthy),
			// no reopen (the session and its seq are intact — dropping it
			// would force a needless full-state resend).
			r.stats.Overloaded.Add(1)
			if r.degraded {
				break
			}
			ceiling = r.backoff(ceiling, maxCeiling)
		case IsTransient(err):
			r.stats.Transient.Add(1)
			r.sess = nil
			if r.degraded {
				break // degraded probes never sleep
			}
			ceiling = r.backoff(ceiling, maxCeiling)
			if rerr := r.Client.redialFrom(gen); rerr == nil {
				if r.Client.generation() != gen {
					r.stats.Redials.Add(1)
				}
			} else if r.OnError != nil {
				r.OnError(rerr)
			}
		default:
			// Fatal application error: retrying the same input cannot help.
			return r.fallback(s)
		}
	}
	if !r.degraded {
		// The whole budget ran out on a healthy (non-degraded) event: report
		// it as the typed permanent failure before degrading. Degraded
		// probes exhaust their budget of one every event — not news.
		r.stats.Exhausted.Add(1)
		if r.OnError != nil {
			r.OnError(fmt.Errorf("rpcsvc: event abandoned after %v (last error: %v): %w",
				r.clock().Sub(start).Round(time.Millisecond), lastErr, ErrRetriesExhausted))
		}
	}
	r.degraded = true
	return r.fallback(s)
}

// clock returns the current time through the test seam.
func (r *SessionScheduler) clock() time.Time {
	if r.now != nil {
		return r.now()
	}
	return time.Now()
}

// backoff sleeps one full-jitter draw — uniform in (0, ceiling) — and
// returns the next ceiling (doubled, capped at max). Jitter spreads
// simultaneous retriers across the window instead of marching them in
// lockstep; full jitter (draw over the whole window, not half) empties a
// thundering herd fastest for a given ceiling.
func (r *SessionScheduler) backoff(ceiling, max time.Duration) time.Duration {
	if ceiling > max {
		ceiling = max
	}
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(r.Seed)).Float64
	}
	d := time.Duration(r.rng() * float64(ceiling))
	if r.sleep != nil {
		r.sleep(d)
	} else {
		time.Sleep(d)
	}
	if ceiling < max {
		ceiling *= 2
	}
	return ceiling
}

// eventOnce performs one open-if-needed + event round trip.
func (r *SessionScheduler) eventOnce(s *sim.State) (*sim.Action, error) {
	if r.sess == nil {
		sess, err := r.Client.OpenSession(&OpenRequest{
			Scheduler:      r.Name,
			Seed:           r.Seed,
			TotalExecutors: s.TotalExecutors,
			MoveDelay:      s.MoveDelay,
			Key:            r.Key,
			Deadline:       r.Deadline,
			Record:         r.Record,
		})
		if err != nil {
			return nil, err
		}
		sess.Deadline = r.Deadline
		if r.opened {
			r.stats.Reopens.Add(1)
		}
		r.opened = true
		r.sess = sess
	}
	act, err := r.sess.Event(s)
	if err != nil {
		return nil, err
	}
	return act, nil
}

// fallback decides locally via the named registry scheduler, or declines
// when none is configured (or it cannot be built).
func (r *SessionScheduler) fallback(s *sim.State) *sim.Action {
	if r.Fallback == "" || r.fbBroken {
		return nil
	}
	if r.fb == nil {
		fb, err := scheduler.New(r.Fallback, scheduler.Options{Seed: r.Seed, Executors: s.TotalExecutors})
		if err != nil {
			r.fbBroken = true
			if r.OnError != nil {
				r.OnError(err)
			}
			return nil
		}
		r.fb = fb
	}
	act, err := r.fb.Decide(s)
	if err != nil {
		if r.OnError != nil {
			r.OnError(err)
		}
		return nil
	}
	r.stats.Fallbacks.Add(1)
	return act
}

// Degraded reports whether the scheduler is currently deciding locally
// (server unreachable past the retry budget).
func (r *SessionScheduler) Degraded() bool { return r.degraded }

// Close releases the server-side session, if one was opened.
func (r *SessionScheduler) Close() error {
	if r.sess == nil {
		return nil
	}
	sess := r.sess
	r.sess = nil
	return sess.Close()
}
