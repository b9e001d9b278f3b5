package rpcsvc

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"repro/internal/scheduler"
	"repro/internal/sim"
)

// session is one server-side scheduling session: a persistent mirror of a
// client's cluster plus the scheduler instance deciding for it. The mirror's
// sim.JobState values live for the whole session with Version bumped exactly
// on the jobs a delta touches, which is what makes the agent's pointer- and
// Version-keyed embedding cache sound in serving.
type session struct {
	mu    sync.Mutex
	id    uint64
	sched scheduler.Scheduler
	// stats, when non-nil, receives per-decision latency observations.
	stats *ServerStats

	total     int
	moveDelay float64
	seq       uint64
	closed    bool // set by reset(); a racing in-flight event must fail cleanly
	jobs      map[int]*sim.JobState
	execs     map[int]*sim.Executor
	// state is the observation handed to Decide, rebuilt in place by every
	// event: its Jobs (the observation-order job list) and FreeExecutors
	// slices are reused, so it is valid for that one call only. seen is the
	// per-event set of ids in the request's Order.
	state sim.State
	seen  map[int]struct{}
	// rec + sink, when set, record the session's decisions and deliver the
	// completed episode when the session ends (see record.go). Accessed
	// only under mu, like the rest of the mirror.
	rec  *recorder
	sink RecordSink
}

// event applies one delta to the mirror and asks the scheduler for the next
// action. It holds the session lock for the whole apply+decide so
// concurrent events on one session serialise; events on different sessions
// run in parallel, each on the goroutine that delivered it.
//
// The request is validated in full before anything mutates — a rejected
// event leaves the mirror (and seq) exactly as the client's shadow has it,
// so one bad request can never wedge an otherwise healthy session. The
// deadline shed obeys the same rule: a deadline miss (budget spent waiting
// on s.mu behind a slow decide, or in the admission backlog) answers
// ErrOverloaded before seq advances or a job materialises, so the client's
// retry of the identical request is valid.
func (s *session) event(req *EventRequest, deadline time.Time) (*ScheduleResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		// An eviction won the race against this in-flight event.
		return nil, fmt.Errorf("rpcsvc: session %d: %w", s.id, ErrSessionEvicted)
	}
	arrivals, err := s.validate(req)
	if err != nil {
		return nil, err
	}
	if !deadline.IsZero() && time.Now().After(deadline) {
		if s.stats != nil {
			s.stats.DeadlineMiss.Add(1)
		}
		return nil, fmt.Errorf("rpcsvc: session %d: deadline budget exhausted before decide: %w", s.id, ErrOverloaded)
	}
	s.seq = req.Seq
	// Executor-pool delta: under failure dynamics the cluster shrinks and
	// grows; 0 means unchanged (pre-churn clients never send the field).
	if req.TotalExecutors > 0 {
		s.total = req.TotalExecutors
	}

	// Arrivals: previously unseen jobs, materialised by validate.
	for _, js := range arrivals {
		s.jobs[js.Job.ID] = js
	}
	// Order: rebuild the observation-order job list; jobs absent from it
	// have left the system. Every listed id is known, and validate left them
	// in seen, so the mirror holds a departed job exactly when it outnumbers
	// the ids seen.
	order := s.state.Jobs[:0]
	for _, id := range req.Order {
		order = append(order, s.jobs[id])
	}
	if len(s.jobs) > len(s.seen) {
		for id := range s.jobs {
			if _, ok := s.seen[id]; !ok {
				delete(s.jobs, id)
			}
		}
	}

	// Deltas: overwrite the touched jobs' runtime counters and bump their
	// Version so Version-keyed caches refresh exactly these jobs. Each is a
	// job Order lists (validate), so none of them just left.
	for _, d := range req.Deltas {
		js := s.jobs[d.ID]
		js.Executors = d.Executors
		js.Limit = d.Limit
		for _, sd := range d.Stages {
			st := js.Stages[sd.Stage]
			st.TasksLaunched = sd.TasksLaunched
			st.TasksDone = sd.TasksDone
			st.ParentsDone = sd.ParentsDone
			st.Running = sd.Running
			st.Completed = st.TasksDone == st.Stage.NumTasks
		}
		done := 0
		for _, st := range js.Stages {
			if st.Completed {
				done++
			}
		}
		js.StagesDone = done
		js.Touch()
	}

	// Free executors: update persistent executor mirrors (pointer stability
	// keeps LocalTo checks and the locality feature coherent across events).
	free := s.state.FreeExecutors[:0]
	for _, ei := range req.FreeExecutors {
		e := s.execs[ei.ID]
		if e == nil {
			e = &sim.Executor{ID: ei.ID}
			s.execs[ei.ID] = e
		}
		e.Class = ei.Class
		e.Mem = ei.Mem
		e.BoundTo = s.jobs[ei.LocalJob] // nil when not local to an in-system job
		free = append(free, e)
	}
	s.state = sim.State{
		Time:           req.Time,
		JobSeconds:     req.JobSeconds,
		TotalExecutors: s.total,
		MoveDelay:      s.moveDelay,
		Jobs:           order,
		FreeExecutors:  free,
	}

	start := time.Now()
	act, err := s.sched.Decide(&s.state)
	if err != nil {
		return nil, err
	}
	if s.stats != nil {
		s.stats.Decide.Observe(time.Since(start))
	}
	return ResponseFromAction(act), nil
}

// validate checks a whole event request against the mirror without
// mutating anything, so apply cannot fail halfway. It returns the request's
// NewJobs materialised as mirror job states: building one is what it takes to
// check its DAG (dag.Job.Validate — stage ids, edge index ranges, symmetric
// adjacency, acyclicity), and a DAG that fails that check would panic the
// scheduler mid-decide rather than fail this one request. Only arrivals pay
// for it; delta-only events carry no NewJobs. It leaves the ids of Order in
// s.seen, the per-event scratch set event reads. Called under s.mu.
func (s *session) validate(req *EventRequest) ([]*sim.JobState, error) {
	if req.Seq != s.seq+1 {
		return nil, fmt.Errorf("rpcsvc: session %d: event seq %d (want %d): %w", s.id, req.Seq, s.seq+1, ErrSeqGap)
	}
	var arrivals []*sim.JobState
	// stageCount reports how many stages the mirror will hold for job id
	// once the arrivals are in: the mirror's own jobs plus this request's.
	stageCount := func(id int) (int, bool) {
		if js, ok := s.jobs[id]; ok {
			return len(js.Stages), true
		}
		for _, js := range arrivals {
			if js.Job.ID == id {
				return len(js.Stages), true
			}
		}
		return 0, false
	}
	for i := range req.NewJobs {
		ji := &req.NewJobs[i]
		if _, dup := stageCount(ji.ID); dup {
			return nil, fmt.Errorf("rpcsvc: session %d: job %d opened twice", s.id, ji.ID)
		}
		js := jobStateFromInfo(ji)
		if err := js.Job.Validate(); err != nil {
			return nil, fmt.Errorf("rpcsvc: session %d: new job %d: %w", s.id, ji.ID, err)
		}
		arrivals = append(arrivals, js)
	}
	if s.seen == nil {
		s.seen = make(map[int]struct{}, len(req.Order))
	}
	clear(s.seen)
	for _, id := range req.Order {
		if _, ok := stageCount(id); !ok {
			return nil, fmt.Errorf("rpcsvc: session %d: order references unknown job %d", s.id, id)
		}
		s.seen[id] = struct{}{}
	}
	for _, d := range req.Deltas {
		n, ok := stageCount(d.ID)
		if !ok {
			return nil, fmt.Errorf("rpcsvc: session %d: delta for unknown job %d", s.id, d.ID)
		}
		// A job the order omits leaves the mirror before deltas apply.
		if _, listed := s.seen[d.ID]; !listed {
			return nil, fmt.Errorf("rpcsvc: session %d: delta for job %d, which the order omits", s.id, d.ID)
		}
		for _, sd := range d.Stages {
			if sd.Stage < 0 || sd.Stage >= n {
				return nil, fmt.Errorf("rpcsvc: session %d: stage %d out of range for job %d", s.id, sd.Stage, d.ID)
			}
		}
	}
	return arrivals, nil
}

// reset marks the session closed and lets the scheduler drop its caches.
// Called after the session left the table, under the session lock so it
// cannot race an in-flight event; an event that lost the race observes
// closed and fails cleanly instead of touching the released state.
func (s *session) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.jobs = nil
	s.execs = nil
	s.state = sim.State{}
	// The session ending — Close or eviction — completes its episode: hand
	// the recorded trajectory to the online trainer before the scheduler
	// drops its caches (the steps' graphs are already recorder-owned).
	if s.rec != nil && s.sink != nil {
		if steps := s.rec.take(); steps != nil {
			s.sink(steps)
		}
		s.rec, s.sink = nil, nil
	}
	s.sched.Reset()
}

// poison closes a session whose event panicked. Its mirror and scheduler may
// be half updated, so the recording is dropped undelivered and the scheduler
// is not asked to Reset.
func (s *session) poison() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.jobs, s.execs, s.state = nil, nil, sim.State{}
	s.rec, s.sink = nil, nil
}

// sessionTable is the bounded session manager: most-recently-used sessions
// stay, the least recently used is evicted when MaxSessions is exceeded, and
// sessions idle past IdleTimeout are swept opportunistically on every
// open/lookup. An evicted session's next Event fails with an unknown-session
// error, telling the client to reopen.
type sessionTable struct {
	mu    sync.Mutex
	max   int
	idle  time.Duration
	next  uint64
	m     map[uint64]*session
	lru   *list.List // front = most recently used; values are *session
	elem  map[uint64]*list.Element
	now   func() time.Time     // test seam
	used  map[uint64]time.Time // last-use stamps for idle eviction
	stats *ServerStats         // eviction counters by cause
}

func newSessionTable(max int, idle time.Duration, stats *ServerStats) *sessionTable {
	return &sessionTable{
		max:   max,
		idle:  idle,
		m:     make(map[uint64]*session),
		lru:   list.New(),
		elem:  make(map[uint64]*list.Element),
		now:   time.Now,
		used:  make(map[uint64]time.Time),
		stats: stats,
	}
}

// add inserts a session, evicting the least-recently-used and any idle
// sessions as needed, and returns the assigned id plus the evicted sessions
// (reset by the caller outside the table lock).
func (t *sessionTable) add(s *session) (uint64, []*session) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	s.id = t.next
	t.m[s.id] = s
	t.elem[s.id] = t.lru.PushFront(s)
	t.used[s.id] = t.now()
	var evicted []*session
	evicted = append(evicted, t.sweepIdleLocked()...)
	for t.max > 0 && len(t.m) > t.max {
		back := t.lru.Back()
		if back == nil {
			break
		}
		evicted = append(evicted, t.removeLocked(back.Value.(*session).id))
		if t.stats != nil {
			t.stats.EvictedLRU.Add(1)
		}
	}
	return s.id, evicted
}

// get looks a session up, marks it most recently used, and sweeps idle
// sessions. The caller resets the returned evictees.
func (t *sessionTable) get(sid uint64) (*session, []*session, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	evicted := t.sweepIdleLocked()
	s := t.m[sid]
	if s == nil {
		return nil, evicted, fmt.Errorf("rpcsvc: unknown session %d: %w", sid, ErrSessionEvicted)
	}
	t.lru.MoveToFront(t.elem[sid])
	t.used[sid] = t.now()
	return s, evicted, nil
}

// remove drops a session from the table, returning it (nil if absent).
func (t *sessionTable) remove(sid uint64) *session {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m[sid] == nil {
		return nil
	}
	return t.removeLocked(sid)
}

func (t *sessionTable) removeLocked(sid uint64) *session {
	s := t.m[sid]
	delete(t.m, sid)
	delete(t.used, sid)
	if e := t.elem[sid]; e != nil {
		t.lru.Remove(e)
		delete(t.elem, sid)
	}
	return s
}

// sweepIdleLocked evicts every session idle past the timeout.
func (t *sessionTable) sweepIdleLocked() []*session {
	if t.idle <= 0 {
		return nil
	}
	cutoff := t.now().Add(-t.idle)
	var evicted []*session
	for e := t.lru.Back(); e != nil; {
		s := e.Value.(*session)
		if !t.used[s.id].Before(cutoff) {
			break // LRU order: everything further front is more recent
		}
		prev := e.Prev()
		evicted = append(evicted, t.removeLocked(s.id))
		if t.stats != nil {
			t.stats.EvictedIdle.Add(1)
		}
		e = prev
	}
	return evicted
}

// len reports the live session count.
func (t *sessionTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}
