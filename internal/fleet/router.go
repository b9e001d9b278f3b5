package fleet

import (
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rpcsvc"
)

// Defaults for Config's zero values.
const (
	DefaultHealthInterval = 2 * time.Second
	DefaultDownAfter      = 2
)

// Replica hysteresis and circuit-breaker settings.
const (
	// upAfter is the consecutive successful probes that bring a down
	// replica back; with DownAfter it is the asymmetric hysteresis that
	// keeps a flapping replica from thrashing session placement.
	upAfter = 2
	// breakerThreshold trips a replica's circuit breaker after this many
	// consecutive forward failures or overload answers.
	breakerThreshold = 5
	// breakerCooldown is how long an open breaker refuses before letting
	// one half-open trial request through.
	breakerCooldown = 2 * time.Second
)

// Config parameterises a Router.
type Config struct {
	// HealthInterval is the period of the active health loop (0 selects
	// DefaultHealthInterval; negative disables the loop — passive
	// transport-failure detection still applies).
	HealthInterval time.Duration
	// DownAfter is the consecutive-failure count (probes and forwarding
	// transport errors combined) that marks a replica down (≤ 0 selects
	// DefaultDownAfter).
	DownAfter int
	// Probe overrides the health probe (nil selects DefaultProbe).
	Probe ProbeFunc
	// Logger receives structured lifecycle events (nil selects
	// slog.Default()).
	Logger *slog.Logger
}

// replica is the router's view of one backend server.
type replica struct {
	id, addr, opsAddr string
	pid               int
	cli               *rpcsvc.Client
	brk               *breaker

	mu         sync.Mutex
	up         bool
	draining   bool
	failStreak int
	okStreak   int
	// model is the served model identity last reported by a health probe
	// ("name@version"; empty until a probe sees one).
	model string

	events  atomic.Uint64
	forward obs.LatencyHist
}

func (rep *replica) routable() bool {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return rep.up && !rep.draining
}

// forwardFail reports one failed forward to the replica's breaker.
func (rt *Router) forwardFail(rep *replica, cause string) {
	if rep.brk.recordFail() {
		rt.log.Warn("fleet: breaker open", "replica", rep.id, "cause", cause)
	}
}

// route maps one fleet session id to its backend placement.
type route struct {
	key        string
	replicaID  string
	backendSID uint64
}

// routerStats is the router-side counter set, rendered by WriteProm.
type routerStats struct {
	opens, events, closes               atomic.Uint64
	noReplica                           atomic.Uint64
	wrongShard, unknown                 atomic.Uint64
	migrationsDrain, migrationsFailover atomic.Uint64
	// shed counts events the router refused locally because the target
	// replica's breaker was open (fleet_shed_total).
	shed atomic.Uint64
}

// Router owns the replica set, the consistent-hash ring and the fleet
// session table, and implements the session protocol by forwarding to the
// sharded replicas. Expose it over TCP with ListenAndServe and over HTTP
// with NewAdminHandler.
type Router struct {
	cfg  Config
	log  *slog.Logger
	ring *Ring

	mu       sync.RWMutex
	replicas map[string]*replica
	sessions map[uint64]*route
	// tombs marks fleet sessions migrated away by a drain: their next event
	// answers ErrWrongShard (reopen now, no backoff) instead of the
	// ErrSessionEvicted an unknown id gets. That answer consumes the mark,
	// as does a Close; the client reopens under a fresh id either way.
	tombs   map[uint64]bool
	nextSID uint64

	nextKey atomic.Uint64

	stats routerStats

	stopOnce sync.Once
	health   atomic.Bool // health loop running (Start ran)
	stop     chan struct{}
	done     chan struct{}
}

// New builds a Router. Call AddReplica to populate it, Start to begin
// active health checking, and Stop when done.
func New(cfg Config) *Router {
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = DefaultDownAfter
	}
	if cfg.Probe == nil {
		cfg.Probe = DefaultProbe
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	return &Router{
		cfg:      cfg,
		log:      log,
		ring:     NewRing(0),
		replicas: make(map[string]*replica),
		sessions: make(map[uint64]*route),
		tombs:    make(map[uint64]bool),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// AddReplica registers and dials a replica. opsAddr (optional) is the
// replica's HTTP ops endpoint, used for health probing and drain
// propagation; pid (0 if unknown) is reported on /fleet so operators and
// tests can address the process.
func (rt *Router) AddReplica(id, addr, opsAddr string, pid int) error {
	if id == "" {
		return fmt.Errorf("fleet: replica id must be non-empty")
	}
	cli, err := rpcsvc.Dial(addr)
	if err != nil {
		return fmt.Errorf("fleet: dial replica %q at %s: %w", id, addr, err)
	}
	rep := &replica{id: id, addr: addr, opsAddr: opsAddr, pid: pid, cli: cli, up: true,
		brk: newBreaker(breakerThreshold, breakerCooldown)}
	rt.mu.Lock()
	if rt.replicas[id] != nil {
		rt.mu.Unlock()
		cli.Close()
		return fmt.Errorf("fleet: replica %q already registered", id)
	}
	rt.replicas[id] = rep
	rt.mu.Unlock()
	rt.ring.Add(id)
	rt.log.Info("fleet: replica registered", "replica", id, "addr", addr, "ops", opsAddr, "pid", pid)
	return nil
}

// DrainReplica migrates every session off the replica and stops routing new
// sessions to it: live backend sessions are closed, and each fleet session's
// next event answers ErrWrongShard so the client reopens — landing on the
// key's new owner. Returns the number of sessions migrated.
func (rt *Router) DrainReplica(id string) (int, error) {
	rep := rt.replica(id)
	if rep == nil {
		return 0, fmt.Errorf("fleet: unknown replica %q", id)
	}
	rep.mu.Lock()
	already := rep.draining
	rep.draining = true
	rep.mu.Unlock()
	n := rt.migrate(id, "drain")
	if !already {
		rt.log.Info("fleet: replica draining", "replica", id, "migrated", n)
	}
	return n, nil
}

// replica looks a replica up by id.
func (rt *Router) replica(id string) *replica {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.replicas[id]
}

// migrate removes every fleet session placed on replica id. reason "drain"
// closes the backend session and tombstones the fleet id (next event:
// wrong shard); reason "failover" assumes the backend is gone and leaves
// the id unknown (next event: evicted). Returns the count migrated.
func (rt *Router) migrate(id, reason string) int {
	type victim struct {
		sid     uint64
		backend uint64
	}
	var victims []victim
	rt.mu.Lock()
	for sid, r := range rt.sessions {
		if r.replicaID != id {
			continue
		}
		victims = append(victims, victim{sid: sid, backend: r.backendSID})
		delete(rt.sessions, sid)
		if reason == "drain" {
			rt.tombs[sid] = true
		}
	}
	rt.mu.Unlock()
	if len(victims) == 0 {
		return 0
	}
	rep := rt.replica(id)
	for _, v := range victims {
		if reason == "drain" && rep != nil {
			// Best effort: the replica is alive during a drain, releasing
			// its mirror early keeps the handover tidy.
			rep.cli.CloseRPC(&rpcsvc.CloseRequest{SID: v.backend})
		}
	}
	switch reason {
	case "drain":
		rt.stats.migrationsDrain.Add(uint64(len(victims)))
	default:
		rt.stats.migrationsFailover.Add(uint64(len(victims)))
	}
	return len(victims)
}

// markFailed records one transport/probe failure against the replica; at
// DownAfter consecutive failures the replica goes down and its sessions
// fail over.
func (rt *Router) markFailed(rep *replica, cause string) {
	rep.mu.Lock()
	rep.okStreak = 0
	rep.failStreak++
	transition := rep.up && rep.failStreak >= rt.cfg.DownAfter
	if transition {
		rep.up = false
	}
	rep.mu.Unlock()
	if transition {
		n := rt.migrate(rep.id, "failover")
		rt.log.Warn("fleet: replica down", "replica", rep.id, "cause", cause, "failed_over", n)
	}
}

// markProbeOK records one successful probe; at upAfter consecutive
// successes a down replica is redialed and brought back into rotation.
func (rt *Router) markProbeOK(rep *replica) {
	rep.mu.Lock()
	rep.failStreak = 0
	if rep.up {
		rep.mu.Unlock()
		return
	}
	rep.okStreak++
	ready := rep.okStreak >= upAfter
	rep.mu.Unlock()
	if !ready {
		return
	}
	// The transport likely died with the replica; replace it before serving.
	if err := rep.cli.Redial(); err != nil {
		rt.markFailed(rep, "redial: "+err.Error())
		return
	}
	rep.mu.Lock()
	rep.up = true
	rep.okStreak = 0
	rep.mu.Unlock()
	rt.log.Info("fleet: replica up", "replica", rep.id)
}

// open places a session: the key's ring owner first, then deterministic
// successors, skipping replicas that are down, draining or circuit-broken
// and demoting the ones that fail on contact.
func (rt *Router) open(req *rpcsvc.OpenRequest, resp *rpcsvc.OpenResponse) error {
	key := req.Key
	if key == "" {
		key = "fleet-" + strconv.FormatUint(rt.nextKey.Add(1), 10)
	}
	fwd := *req
	fwd.Key = key
	tried := make(map[string]bool)
	var lastErr error
	for {
		id := rt.ring.OwnerWhere(key, func(id string) bool {
			if tried[id] {
				return false
			}
			rep := rt.replica(id)
			return rep != nil && rep.routable() && rep.brk.ready()
		})
		if id == "" {
			break
		}
		tried[id] = true
		rep := rt.replica(id)
		if rep == nil {
			continue
		}
		bresp, err := rep.cli.OpenRPC(&fwd)
		if err == nil {
			rep.brk.recordOK()
			rt.mu.Lock()
			rt.nextSID++
			sid := rt.nextSID
			rt.sessions[sid] = &route{key: key, replicaID: id, backendSID: bresp.SID}
			rt.mu.Unlock()
			rt.stats.opens.Add(1)
			resp.SID = sid
			resp.Replica = bresp.Replica
			if resp.Replica == "" {
				resp.Replica = id // replica predates identity in Open replies
			}
			return nil
		}
		lastErr = err
		switch {
		case rpcsvc.IsReplicaDraining(err):
			// The replica began draining on its own (SIGTERM); honour it
			// before the health loop notices.
			rt.DrainReplica(id)
		case rpcsvc.IsOverloaded(err):
			// The replica is alive but refusing work; count it against the
			// breaker and walk to the key's next successor.
			rt.forwardFail(rep, "open overloaded")
		case rpcsvc.IsTransient(err):
			rt.markFailed(rep, "open forward")
			rt.forwardFail(rep, "open transport")
		default:
			// Fatal application error (unknown scheduler name, …): another
			// replica would answer identically. Forward verbatim.
			return err
		}
	}
	rt.stats.noReplica.Add(1)
	if lastErr != nil {
		return fmt.Errorf("fleet: no routable replica for key %q (last error: %v): %w", key, lastErr, rpcsvc.ErrReplicaDraining)
	}
	return fmt.Errorf("fleet: no routable replica for key %q: %w", key, rpcsvc.ErrReplicaDraining)
}

// event forwards one session event to its backend, translating placement
// loss into the typed errors the self-healing client recovers from. Raw
// transport errors never leak to the client: over the wire they would
// flatten to unclassifiable strings and read as fatal.
func (rt *Router) event(req *rpcsvc.EventRequest, resp *rpcsvc.EventResponse) error {
	rt.mu.RLock()
	r := rt.sessions[req.SID]
	rt.mu.RUnlock()
	if r == nil {
		rt.mu.Lock()
		tombed := rt.tombs[req.SID]
		delete(rt.tombs, req.SID)
		rt.mu.Unlock()
		if tombed {
			rt.stats.wrongShard.Add(1)
			return fmt.Errorf("fleet: session %d migrated: %w", req.SID, rpcsvc.ErrWrongShard)
		}
		rt.stats.unknown.Add(1)
		return fmt.Errorf("fleet: unknown session %d: %w", req.SID, rpcsvc.ErrSessionEvicted)
	}
	rep := rt.replica(r.replicaID)
	if rep == nil {
		rt.dropRoute(req.SID)
		return fmt.Errorf("fleet: session %d lost replica %q: %w", req.SID, r.replicaID, rpcsvc.ErrSessionEvicted)
	}
	if !rep.brk.allow() {
		// The breaker is open: shed locally without spending a forward on a
		// replica that keeps failing or refusing. The session client backs
		// off with jitter and retries the identical event — the session is
		// untouched, so nothing reopens — and a retry arriving after the
		// cooldown becomes the half-open trial.
		rt.stats.shed.Add(1)
		return fmt.Errorf("fleet: replica %q circuit open, event shed: %w", r.replicaID, rpcsvc.ErrOverloaded)
	}
	fwd := *req
	fwd.SID = r.backendSID
	start := time.Now()
	bresp, err := rep.cli.EventRPC(&fwd)
	if err == nil {
		rep.brk.recordOK()
		rep.forward.Observe(time.Since(start))
		rep.events.Add(1)
		rt.stats.events.Add(1)
		*resp = *bresp
		return nil
	}
	if rpcsvc.IsTransient(err) {
		// The replica died mid-session. Fail over: drop the route and
		// answer eviction — the client reopens from its snapshot and the
		// reopen re-routes around the dead replica.
		rt.markFailed(rep, "event forward")
		rt.forwardFail(rep, "event transport")
		if rt.dropRoute(req.SID) {
			rt.stats.migrationsFailover.Add(1)
		}
		return fmt.Errorf("fleet: replica %q unreachable, session %d failing over: %w", r.replicaID, req.SID, rpcsvc.ErrSessionEvicted)
	}
	if rpcsvc.IsOverloaded(err) {
		// The replica shed the event itself: the transport is healthy but
		// the replica is saturated. Count it against the breaker and forward
		// the answer verbatim — the client's overloaded rung backs off.
		rt.forwardFail(rep, "event overloaded")
		return err
	}
	// Any other application answer means the replica is serving; feed the
	// breaker a success so eviction/seq-gap storms cannot open it.
	rep.brk.recordOK()
	if rpcsvc.IsSessionEvicted(err) || rpcsvc.IsSeqGap(err) {
		// The backend lost (or will never accept) this stream; the fleet
		// route is dead too. The client reopens under a fresh id either way.
		rt.dropRoute(req.SID)
		if rpcsvc.IsSeqGap(err) {
			rep.cli.CloseRPC(&rpcsvc.CloseRequest{SID: r.backendSID})
		}
	}
	return err // backend answer, markers intact, forwarded verbatim
}

// closeSession releases a fleet session and its backend session.
func (rt *Router) closeSession(req *rpcsvc.CloseRequest) error {
	rt.mu.Lock()
	r := rt.sessions[req.SID]
	delete(rt.sessions, req.SID)
	delete(rt.tombs, req.SID)
	rt.mu.Unlock()
	if r == nil {
		return nil // closing an unknown session is not an error (rpcsvc semantics)
	}
	rt.stats.closes.Add(1)
	rep := rt.replica(r.replicaID)
	if rep == nil {
		return nil
	}
	if err := rep.cli.CloseRPC(&rpcsvc.CloseRequest{SID: r.backendSID}); err != nil && !rpcsvc.IsTransient(err) {
		return err
	}
	return nil
}

// dropRoute removes one fleet session route, reporting whether it existed.
func (rt *Router) dropRoute(sid uint64) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.sessions[sid] == nil {
		return false
	}
	delete(rt.sessions, sid)
	return true
}

// routableIDs returns the ids of up, non-draining replicas in sorted order.
func (rt *Router) routableIDs() []string {
	rt.mu.RLock()
	ids := make([]string, 0, len(rt.replicas))
	for id, rep := range rt.replicas {
		if rep.routable() {
			ids = append(ids, id)
		}
	}
	rt.mu.RUnlock()
	sort.Strings(ids)
	return ids
}

// Sessions reports the number of live fleet sessions.
func (rt *Router) Sessions() int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return len(rt.sessions)
}

// sessionsOn counts live fleet sessions placed on one replica.
func (rt *Router) sessionsOn(id string) int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	n := 0
	for _, r := range rt.sessions {
		if r.replicaID == id {
			n++
		}
	}
	return n
}

// Stop halts the health loop and closes every replica connection.
func (rt *Router) Stop() {
	rt.stopOnce.Do(func() {
		close(rt.stop)
		if rt.healthRunning() {
			<-rt.done
		}
		rt.mu.Lock()
		reps := make([]*replica, 0, len(rt.replicas))
		for _, rep := range rt.replicas {
			reps = append(reps, rep)
		}
		rt.mu.Unlock()
		for _, rep := range reps {
			rep.cli.Close()
		}
	})
}
