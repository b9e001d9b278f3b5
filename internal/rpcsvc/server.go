package rpcsvc

import (
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/scheduler"
	"repro/internal/sim"
)

// SessionConfig parameterises the session-serving side of a server.
type SessionConfig struct {
	// Default names the registry scheduler used when OpenRequest.Scheduler
	// is empty. Ignored when New is set and handles the empty name itself.
	Default string
	// New mints one fresh scheduler per session. name is the
	// client-requested registry name after defaulting; seed is the client's
	// session seed. Nil falls back to
	// scheduler.New(name, scheduler.Options{Seed: seed}).
	New func(name string, seed int64) (scheduler.Scheduler, error)
	// MaxSessions bounds concurrent sessions; the least recently used is
	// evicted beyond it. 0 selects DefaultMaxSessions, negative disables
	// the bound.
	MaxSessions int
	// IdleTimeout evicts sessions with no event for this long. 0 selects
	// DefaultIdleTimeout, negative disables idle eviction.
	IdleTimeout time.Duration
	// MaxInflight bounds admitted work — Events currently executing or
	// waiting on a session lock, across all sessions. Beyond it the server
	// sheds new Events (and Opens) with ErrOverloaded instead of queueing
	// unboundedly. 0 (the default) disables admission control.
	MaxInflight int
	// ReplicaID names this server instance in Open replies and metrics, so
	// fleet clients can observe which replica serves a session. Empty is
	// fine for single-server deployments.
	ReplicaID string
	// RecordSink, when set, enables opt-in trajectory recording: a session
	// opened with OpenRequest.Record captures its decisions and delivers
	// the completed episode here when it ends (see record.go). Nil — the
	// default — makes Record a silent no-op, and recording-off sessions
	// serve bit-identically either way.
	RecordSink RecordSink
}

// DefaultMaxSessions bounds the session table when SessionConfig leaves
// MaxSessions zero.
const DefaultMaxSessions = 256

// DefaultIdleTimeout sweeps sessions when SessionConfig leaves IdleTimeout
// zero.
const DefaultIdleTimeout = 5 * time.Minute

// Decima is the RPC service object. Method signatures follow net/rpc
// conventions; clients call "Decima.Open" / "Decima.Event" /
// "Decima.Close". Every session decides on a scheduler of its own.
type Decima struct {
	factory func(name string, seed int64) (scheduler.Scheduler, error)
	defName string
	tbl     *sessionTable
	// replicaID names this instance in Open replies (see SessionConfig).
	replicaID string
	// maxInflight, when positive, bounds admitted Events; the gate compares
	// it against stats.Inflight.
	maxInflight int
	// draining, once set, rejects new Opens while existing sessions keep
	// serving — the SIGTERM graceful-drain mode of cmd/decima-server and
	// the handshake a fleet router uses to migrate sessions away.
	draining atomic.Bool
	// recordSink enables opt-in trajectory recording (record.go).
	recordSink RecordSink
	// modelMu guards the served model identity (SetModel/Install).
	modelMu      sync.Mutex
	modelName    string
	modelVersion int
	stats        ServerStats
}

// NewDecimaSessions builds the service object for per-session scheduler
// instances minted by cfg.New (or the scheduler registry).
func NewDecimaSessions(cfg SessionConfig) *Decima {
	max := cfg.MaxSessions
	switch {
	case max == 0:
		max = DefaultMaxSessions
	case max < 0:
		max = 0 // unbounded
	}
	idle := cfg.IdleTimeout
	switch {
	case idle == 0:
		idle = DefaultIdleTimeout
	case idle < 0:
		idle = 0 // never
	}
	factory := cfg.New
	if factory == nil {
		factory = func(name string, seed int64) (scheduler.Scheduler, error) {
			return scheduler.New(name, scheduler.Options{Seed: seed})
		}
	}
	d := &Decima{factory: factory, defName: cfg.Default, replicaID: cfg.ReplicaID, maxInflight: cfg.MaxInflight}
	d.recordSink = cfg.RecordSink
	d.tbl = newSessionTable(max, idle, &d.stats)
	return d
}

// Stop does nothing: the service object owns no goroutine (every event is
// decided on the goroutine that delivered it). The method remains only
// because bench/ calls it and that directory is frozen between benchmark
// PRs; ROADMAP item 1 removes both.
func (d *Decima) Stop() {}

// newScheduler mints the scheduler for one session.
func (d *Decima) newScheduler(name string, seed int64) (scheduler.Scheduler, error) {
	if name == "" {
		name = d.defName
	}
	if name == "" {
		return nil, fmt.Errorf("rpcsvc: no scheduler named in request and no server default")
	}
	return d.factory(name, seed)
}

// Open is the session-protocol entry point: it establishes a server-side
// cluster mirror with its own scheduler instance and returns the session
// id. Sessions are bounded (LRU) and idle-swept; an evicted session's next
// Event fails, telling the client to reopen.
func (d *Decima) Open(req *OpenRequest, resp *OpenResponse) error {
	if d.draining.Load() {
		d.stats.OpensRejected.Add(1)
		return fmt.Errorf("rpcsvc: replica %q: %w", d.replicaID, ErrReplicaDraining)
	}
	// Opens pass the same admission gate as Events: a saturated replica must
	// not bind new sessions it cannot serve. Opens are not counted in-flight
	// themselves (they are cheap and hold no session lock).
	if d.maxInflight > 0 && d.stats.Inflight.Load() >= int64(d.maxInflight) {
		d.stats.Shed.Add(1)
		return fmt.Errorf("rpcsvc: replica %q: admission queue full: %w", d.replicaID, ErrOverloaded)
	}
	arrival := time.Now()
	sched, err := d.newScheduler(req.Scheduler, req.Seed)
	if err != nil {
		return err
	}
	// Scheduler construction is the expensive part of an Open (for decima,
	// seeding the session's RNG); shed before binding a session the client has
	// stopped waiting for. No table entry exists yet, so this is pre-mutation.
	if req.Deadline > 0 && time.Since(arrival) > req.Deadline {
		d.stats.DeadlineMiss.Add(1)
		return fmt.Errorf("rpcsvc: replica %q: open deadline budget exhausted: %w", d.replicaID, ErrOverloaded)
	}
	sess := &session{
		sched:     sched,
		stats:     &d.stats,
		total:     req.TotalExecutors,
		moveDelay: req.MoveDelay,
		jobs:      make(map[int]*sim.JobState),
		execs:     make(map[int]*sim.Executor),
	}
	if req.Record && d.recordSink != nil {
		// Recording rides the agent's fast-path Record hook; non-agent
		// schedulers (fifo, fair) have no trajectory to record and the flag
		// is silently ignored — as it is on servers with no sink at all.
		if ag, ok := sched.(*core.Agent); ok {
			rec := &recorder{}
			ag.Record = rec.record
			sess.rec = rec
			sess.sink = d.recordSink
			d.stats.RecordingOpens.Add(1)
		}
	}
	sid, evicted := d.tbl.add(sess)
	resetAll(evicted)
	d.stats.Opens.Add(1)
	resp.SID = sid
	resp.Replica = d.replicaID
	return nil
}

// Event applies one state delta to the session's mirror and returns the
// scheduler's decision for the event. Overload shedding (admission gate,
// deadline budget) happens strictly before the mirror mutates, so a shed
// event is exactly retryable: the client resends the identical request
// (same seq, same NewJobs) after backing off.
func (d *Decima) Event(req *EventRequest, resp *EventResponse) error {
	in := d.stats.Inflight.Add(1)
	defer d.stats.Inflight.Add(-1)
	if d.maxInflight > 0 && in > int64(d.maxInflight) {
		d.stats.Shed.Add(1)
		return fmt.Errorf("rpcsvc: replica %q: admission queue full (%d in flight): %w", d.replicaID, in-1, ErrOverloaded)
	}
	// The deadline budget is relative to arrival; resolve it to an instant
	// now so time spent waiting on the session lock counts against it.
	var deadline time.Time
	if req.Deadline > 0 {
		deadline = time.Now().Add(req.Deadline)
	}
	sess, evicted, err := d.tbl.get(req.SID)
	resetAll(evicted)
	if err != nil {
		return err
	}
	r, err := d.contain(sess, req, deadline)
	if err != nil {
		if IsSeqGap(err) {
			d.stats.SeqGaps.Add(1)
		}
		return err
	}
	d.stats.Events.Add(1)
	resp.ScheduleResponse = *r
	return nil
}

// contain runs one event on sess and turns a panic under it into the
// eviction of that session alone: the mirror and scheduler may be half
// updated, so the session leaves the table, its recording is dropped
// undelivered, and the client gets the evicted error, which makes it reopen
// from its shadow. net/rpc does not recover handler panics, so without this
// one bad event would end the process and every session on it.
func (d *Decima) contain(sess *session, req *EventRequest, deadline time.Time) (r *ScheduleResponse, err error) {
	defer func() {
		if p := recover(); p != nil {
			d.stats.Panics.Add(1)
			d.tbl.remove(sess.id)
			sess.poison()
			r, err = nil, fmt.Errorf("rpcsvc: session %d: event panicked: %v: %w", sess.id, p, ErrSessionEvicted)
		}
	}()
	return sess.event(req, deadline)
}

// Close releases a session. Closing an unknown (already evicted) session is
// not an error.
func (d *Decima) Close(req *CloseRequest, resp *CloseResponse) error {
	if sess := d.tbl.remove(req.SID); sess != nil {
		sess.reset()
		d.stats.Closes.Add(1)
	}
	return nil
}

// SetDraining switches the service in or out of drain mode: while draining,
// Open is rejected with ErrReplicaDraining and health reports report it, but
// existing sessions keep serving so they can be migrated or closed cleanly.
func (d *Decima) SetDraining(v bool) { d.draining.Store(v) }

// Draining reports whether the service is refusing new sessions.
func (d *Decima) Draining() bool { return d.draining.Load() }

// ReplicaID returns the identity announced in Open replies.
func (d *Decima) ReplicaID() string { return d.replicaID }

// Stats snapshots the service's counters plus live session occupancy.
func (d *Decima) Stats() StatsSnapshot {
	s := d.stats.snapshot()
	s.Sessions = d.tbl.len()
	s.Draining = d.draining.Load()
	s.Replica = d.replicaID
	s.ModelName, s.ModelVersion = d.Model()
	return s
}

// resetAll resets evicted sessions outside the table lock.
func resetAll(ss []*session) {
	for _, s := range ss {
		s.reset()
	}
}

// Server is a listening Decima scheduling service: a session service object
// behind the shared Listener, which supplies Addr and Close.
type Server struct {
	*Listener
	svc *Decima
}

// ListenAndServeSessions starts a session-serving scheduling service on addr
// (e.g. "127.0.0.1:0"): every session gets its own scheduler instance from
// cfg.New (or the scheduler registry), so sessions decide concurrently.
func ListenAndServeSessions(addr string, cfg SessionConfig) (*Server, error) {
	svc := NewDecimaSessions(cfg)
	lis, err := Listen(addr, svc)
	if err != nil {
		return nil, err
	}
	return &Server{Listener: lis, svc: svc}, nil
}

// Sessions reports the number of live sessions (for tests and ops
// introspection).
func (s *Server) Sessions() int { return s.svc.tbl.len() }

// Service returns the underlying RPC service object, through which ops
// surfaces reach drain mode and the counter set.
func (s *Server) Service() *Decima { return s.svc }

// Stats snapshots the serving counters (see Decima.Stats).
func (s *Server) Stats() StatsSnapshot { return s.svc.Stats() }

// protocol is the session surface a Listener serves: the three methods a
// Client calls. A replica's *Decima and a fleet router both implement it.
type protocol interface {
	Open(*OpenRequest, *OpenResponse) error
	Event(*EventRequest, *EventResponse) error
	Close(*CloseRequest, *CloseResponse) error
}

// Listener is the one accept loop of the serving stack: it serves a
// session-protocol receiver under the name "Decima" on a TCP address, with
// one goroutine per connection that runs every call itself (serveConn), and
// tracks every connection so Close can sever them. A replica (Server) and a
// fleet router (fleet.Server) both listen through it.
type Listener struct {
	lis  net.Listener
	rpcS *rpc.Server
	wg   sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// Listen starts serving svc on addr and returns immediately; connections are
// handled on background goroutines until Close.
func Listen(addr string, svc protocol) (*Listener, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	rpcS := rpc.NewServer()
	if err := rpcS.RegisterName("Decima", svc); err != nil {
		lis.Close()
		return nil, err
	}
	l := &Listener{lis: lis, rpcS: rpcS, conns: make(map[net.Conn]struct{})}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// acceptLoop serves connections until the listener closes.
func (l *Listener) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.lis.Accept()
		if err != nil {
			return
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.conns[conn] = struct{}{}
		l.mu.Unlock()
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			serveConn(l.rpcS, conn)
			l.mu.Lock()
			delete(l.conns, conn)
			l.mu.Unlock()
		}()
	}
}

// Addr returns the listen address.
func (l *Listener) Addr() string { return l.lis.Addr().String() }

// Close stops the listener, severs open connections, and waits for the
// serving goroutines to finish. It leaves the served receiver alone.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	for c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
	err := l.lis.Close()
	l.wg.Wait()
	return err
}
