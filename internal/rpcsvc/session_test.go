package rpcsvc

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// agentFactory mints bit-identical greedy agents (same seed, same
// construction) so in-process and session paths decide with the same
// parameters.
func agentFactory(executors int) func(name string, seed int64) (scheduler.Scheduler, error) {
	return func(name string, seed int64) (scheduler.Scheduler, error) {
		a := core.New(core.DefaultConfig(executors), rand.New(rand.NewSource(77)))
		a.Greedy = true
		return a, nil
	}
}

// runnerFactory mints per-session runners of one base agent through the
// registry's "decima" factory, each sampling from its session seed unless
// base is greedy — the cmd/decima-server deployment shape.
func runnerFactory(base *core.Agent) func(name string, seed int64) (scheduler.Scheduler, error) {
	return func(name string, seed int64) (scheduler.Scheduler, error) {
		return scheduler.New("decima", scheduler.Options{Seed: seed, Sampled: !base.Greedy, Agent: base})
	}
}

// startSessionServer launches a session-serving service on a random port.
func startSessionServer(t testing.TB, cfg SessionConfig) (*Server, *Client) {
	t.Helper()
	srv, err := ListenAndServeSessions("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

// runKey condenses a run into an exact-comparison fingerprint.
func runKey(r *sim.Result) string {
	return fmt.Sprintf("%v/%v/%v/%d/%d", r.AvgJCT(), r.Makespan, r.JobSeconds, r.Invocations, len(r.Completed))
}

// TestSessionBitIdenticalToInProcess extends PR 2's equivalence bar to the
// wire: over a full noisy run, the decisions produced through the session
// protocol (server-side mirror, embedding cache ON) are bit-identical to the
// in-process agent — any divergence anywhere in the event stream would shift
// the noise draws and change every downstream number.
func TestSessionBitIdenticalToInProcess(t *testing.T) {
	const executors = 8
	cfg := sim.SparkDefaults(executors) // DurationNoise > 0: noisy run
	jobs := workload.Batch(rand.New(rand.NewSource(5)), 7)

	_, cli := startSessionServer(t, SessionConfig{Default: "decima", New: agentFactory(executors)})

	// In-process reference: same construction as the server's factory.
	local, err := agentFactory(executors)("decima", 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := sim.New(cfg, workload.CloneAll(jobs), scheduler.Sim(local), rand.New(rand.NewSource(9))).Run()

	ss := &SessionScheduler{Client: cli}
	session := sim.New(cfg, workload.CloneAll(jobs), ss, rand.New(rand.NewSource(9))).Run()
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	if runKey(ref) != runKey(session) {
		t.Fatalf("session diverges from in-process:\n  local   %s\n  session %s", runKey(ref), runKey(session))
	}
	if ref.Unfinished != 0 || ref.Deadlock {
		t.Fatalf("reference run incomplete: unfinished=%d deadlock=%v", ref.Unfinished, ref.Deadlock)
	}
}

// TestSessionHeuristicMatchesLocal runs the same equivalence for a
// heuristic selected by registry name through OpenSession.
func TestSessionHeuristicMatchesLocal(t *testing.T) {
	const executors = 6
	cfg := sim.SparkDefaults(executors)
	jobs := workload.Batch(rand.New(rand.NewSource(15)), 6)

	_, cli := startSessionServer(t, SessionConfig{Default: "decima", New: nil}) // registry fallback

	localS, err := scheduler.New("sjf-cp", scheduler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	local := sim.New(cfg, workload.CloneAll(jobs), scheduler.Sim(localS), rand.New(rand.NewSource(2))).Run()

	ss := &SessionScheduler{Client: cli, Name: "sjf-cp"}
	remote := sim.New(cfg, workload.CloneAll(jobs), ss, rand.New(rand.NewSource(2))).Run()
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	if runKey(local) != runKey(remote) {
		t.Fatalf("session sjf-cp diverges: %s vs %s", runKey(local), runKey(remote))
	}
}

// TestConcurrentSessions drives N full simulations in parallel, each over
// its own session on one server — the race detector guards the session
// table, per-session locks and the per-session scheduler instances.
func TestConcurrentSessions(t *testing.T) {
	const executors = 6
	_, cli := startSessionServer(t, SessionConfig{Default: "decima", New: agentFactory(executors)})

	const n = 6
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			// Sessions share one client connection: net/rpc multiplexes
			// concurrent calls over it.
			var rpcErr error
			ss := &SessionScheduler{Client: cli, OnError: func(e error) { rpcErr = e }}
			defer ss.Close()
			jobs := workload.Batch(rand.New(rand.NewSource(seed)), 4)
			res := sim.New(sim.SparkDefaults(executors), jobs, ss, rand.New(rand.NewSource(seed))).Run()
			if rpcErr != nil {
				errs <- rpcErr
				return
			}
			if res.Unfinished != 0 || res.Deadlock {
				errs <- fmt.Errorf("seed %d: unfinished=%d deadlock=%v", seed, res.Unfinished, res.Deadlock)
			}
		}(int64(c + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentSessionsBitIdentical drives 8 concurrent sampled sessions
// through one server and compares every session's full noisy run against an
// in-process reference using an identically seeded runner: the schedules and
// metrics — and therefore every RNG draw along the way — must match exactly,
// however the sessions' events interleave on the server. Run under -race
// (make race) this also guards that sessions share nothing mutable: they
// read one model, by pointer.
func TestConcurrentSessionsBitIdentical(t *testing.T) {
	const executors = 8
	const sessions = 8
	base := core.New(core.DefaultConfig(executors), rand.New(rand.NewSource(77)))
	base.Greedy = false // sampled: any probability or RNG drift changes the run
	mint := runnerFactory(base)

	_, cli := startSessionServer(t, SessionConfig{Default: "decima", New: mint})

	// In-process references, sequentially.
	want := make([]string, sessions)
	for k := 0; k < sessions; k++ {
		a, err := mint("decima", int64(k+1))
		if err != nil {
			t.Fatal(err)
		}
		jobs := workload.Batch(rand.New(rand.NewSource(int64(20+k))), 5)
		res := sim.New(sim.SparkDefaults(executors), jobs, scheduler.Sim(a), rand.New(rand.NewSource(int64(k)))).Run()
		if res.Unfinished != 0 || res.Deadlock {
			t.Fatalf("reference run %d incomplete", k)
		}
		want[k] = runKey(res)
	}

	got := make([]string, sessions)
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for k := 0; k < sessions; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var rpcErr error
			ss := &SessionScheduler{Client: cli, Seed: int64(k + 1), OnError: func(e error) { rpcErr = e }}
			defer ss.Close()
			jobs := workload.Batch(rand.New(rand.NewSource(int64(20+k))), 5)
			res := sim.New(sim.SparkDefaults(executors), jobs, ss, rand.New(rand.NewSource(int64(k)))).Run()
			if rpcErr != nil {
				errs <- rpcErr
				return
			}
			got[k] = runKey(res)
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for k := 0; k < sessions; k++ {
		if got[k] != want[k] {
			t.Fatalf("session %d: concurrent serving diverged from in-process reference:\n%s\nvs\n%s", k, got[k], want[k])
		}
	}
}

// TestSessionLRUEviction fills the session table past its bound and checks
// that the least recently used sessions are evicted: their next Event fails
// with an unknown-session error while fresher sessions keep serving.
func TestSessionLRUEviction(t *testing.T) {
	const executors = 4
	srv, cli := startSessionServer(t, SessionConfig{
		Default:     "fifo",
		MaxSessions: 2,
		IdleTimeout: -1, // isolate the LRU bound
	})

	open := func() *Session {
		s, err := cli.OpenSession(&OpenRequest{TotalExecutors: executors})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	mkState := func(seed int64) *sim.State {
		jobs := workload.Batch(rand.New(rand.NewSource(seed)), 1)
		js := jobStateFromInfo(&JobInfo{ID: jobs[0].ID, Stages: []StageInfo{{ID: 0, NumTasks: 2, TaskDuration: 1, CPUReq: 1}}})
		return &sim.State{
			Jobs:           []*sim.JobState{js},
			FreeExecutors:  []*sim.Executor{{ID: 0, Mem: 1}},
			TotalExecutors: executors,
		}
	}

	s1, s2 := open(), open()
	if _, err := s1.Event(mkState(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Event(mkState(2)); err != nil {
		t.Fatal(err)
	}
	// Opening a third session must evict s1 (least recently used).
	s3 := open()
	if got := srv.Sessions(); got != 2 {
		t.Fatalf("session count after eviction = %d, want 2", got)
	}
	// The eviction is visible in the exported counters: one LRU eviction,
	// no idle sweeps, occupancy matching the live count.
	if st := srv.Stats(); st.EvictedLRU != 1 || st.EvictedIdle != 0 || st.Sessions != 2 || st.Opens != 3 {
		t.Fatalf("stats after LRU eviction = %+v, want EvictedLRU=1 EvictedIdle=0 Sessions=2 Opens=3", st)
	}
	if _, err := s1.Event(mkState(1)); err == nil {
		t.Fatal("evicted session still serves events")
	}
	if _, err := s2.Event(mkState(2)); err != nil {
		t.Fatalf("survivor s2 broken: %v", err)
	}
	if _, err := s3.Event(mkState(3)); err != nil {
		t.Fatalf("fresh s3 broken: %v", err)
	}
}

// hammerEviction drives a tiny session table from many goroutines that keep
// opening sessions and sending events, so evictions race live traffic; the
// invariants are "no session-table corruption" (race detector), "table never
// exceeds its bound", "nothing deadlocks", and "errors are only ever the
// documented unknown-session kind, after which reopening works".
func hammerEviction(t *testing.T, cfg SessionConfig) {
	const executors = 4
	cfg.IdleTimeout = -1
	srv, cli := startSessionServer(t, cfg)

	st := func() *sim.State {
		js := jobStateFromInfo(&JobInfo{ID: 1, Stages: []StageInfo{{ID: 0, NumTasks: 2, TaskDuration: 1, CPUReq: 1}}})
		return &sim.State{
			Jobs:           []*sim.JobState{js},
			FreeExecutors:  []*sim.Executor{{ID: 0, Mem: 1}},
			TotalExecutors: executors,
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	fails := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				sess, err := cli.OpenSession(&OpenRequest{TotalExecutors: executors, Seed: int64(w + 1)})
				if err != nil {
					fails <- err
					return
				}
				// Drive a few events; eviction by a concurrent open is
				// expected and must surface as a clean error.
				for e := 0; e < 3; e++ {
					if _, err := sess.Event(st()); err != nil {
						break // evicted: reopen on next iteration
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(fails)
	for err := range fails {
		t.Fatal(err)
	}
	if got := srv.Sessions(); got > cfg.MaxSessions {
		t.Fatalf("session table exceeded bound: %d > %d", got, cfg.MaxSessions)
	}
}

// TestSessionEvictionUnderLoad races evictions against cheap fifo traffic,
// where the table lock is the contended resource.
func TestSessionEvictionUnderLoad(t *testing.T) {
	hammerEviction(t, SessionConfig{Default: "fifo", MaxSessions: 3})
}

// TestEvictionRacesInflightDecide is the same hammer with per-session decima
// agents on a table of two: a decide holds its session lock long enough that
// LRU evictions routinely land on a session whose event is in flight. The
// eviction must wait for that decision and then reset the agent; the event
// that lost the race must fail cleanly.
func TestEvictionRacesInflightDecide(t *testing.T) {
	base := core.New(core.DefaultConfig(4), rand.New(rand.NewSource(99)))
	hammerEviction(t, SessionConfig{Default: "decima", New: runnerFactory(base), MaxSessions: 2})
}

// TestEventOnResetSessionFailsCleanly pins the eviction race down at the
// session level: an event that looked its session up just before eviction
// reset it must get an error, not a nil-map panic (which would kill the
// whole serving process — net/rpc does not recover handler panics).
func TestEventOnResetSessionFailsCleanly(t *testing.T) {
	fifo, err := scheduler.New("fifo", scheduler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sess := &session{
		sched: fifo,
		total: 2,
		jobs:  make(map[int]*sim.JobState),
		execs: make(map[int]*sim.Executor),
	}
	sess.reset() // the eviction wins the race
	_, err = sess.event(&EventRequest{
		Seq:           1,
		NewJobs:       []JobInfo{{ID: 1, Stages: []StageInfo{{ID: 0, NumTasks: 1, TaskDuration: 1, CPUReq: 1}}}},
		Order:         []int{1},
		FreeExecutors: []ExecutorInfo{{ID: 0, Mem: 1, LocalJob: -1}},
	}, time.Time{})
	if err == nil {
		t.Fatal("event on a reset session succeeded")
	}
}

// TestInvalidEventLeavesSessionUsable checks that a rejected event mutates
// nothing: the same session must accept the corrected request with the
// same seq afterwards (validation before mutation, seq bumped last).
func TestInvalidEventLeavesSessionUsable(t *testing.T) {
	_, cli := startSessionServer(t, SessionConfig{Default: "fifo"})
	sess, err := cli.OpenSession(&OpenRequest{TotalExecutors: 2})
	if err != nil {
		t.Fatal(err)
	}
	good := func(seq uint64) *EventRequest {
		return &EventRequest{
			SID:           sess.SID(),
			Seq:           seq,
			NewJobs:       []JobInfo{{ID: 1, Stages: []StageInfo{{ID: 0, NumTasks: 2, TaskDuration: 1, CPUReq: 1}}}},
			Order:         []int{1},
			FreeExecutors: []ExecutorInfo{{ID: 0, Mem: 1, LocalJob: -1}},
		}
	}
	bad := good(1)
	bad.Deltas = []JobDelta{{ID: 1, Stages: []StageDelta{{Stage: 99}}}} // out of range
	var resp EventResponse
	if err := cli.call("Decima.Event", bad, &resp); err == nil {
		t.Fatal("invalid event accepted")
	}
	// Same seq, corrected body: must now succeed — the bad request may not
	// have bumped seq or inserted job 1.
	if err := cli.call("Decima.Event", good(1), &resp); err != nil {
		t.Fatalf("session wedged after rejected event: %v", err)
	}
}

// TestMalformedEventIsRejected sends well-formed gob a replica cannot apply:
// NewJobs describing a structurally invalid DAG (a parent index out of
// range, a two-stage cycle), a delta for a job the same request's Order
// omits (a mirror job that is leaving, an unlisted arrival), and values the
// simulator never produces — impossible stage counters in an arrival or a
// delta, negative job counters or executor classes, an executor listed free
// twice, non-finite times, durations or memory. Each must be refused by
// validation before the mirror mutates, after which the same session accepts
// a normal event under the same seq and the server still opens and serves a
// fresh session.
func TestMalformedEventIsRejected(t *testing.T) {
	const executors = 4
	srv, cli := startSessionServer(t, SessionConfig{Default: "decima", New: agentFactory(executors)})
	call := func(sid uint64, req *EventRequest) error {
		req.SID = sid
		var resp EventResponse
		return cli.call("Decima.Event", req, &resp)
	}
	free := []ExecutorInfo{{ID: 0, Mem: 1, LocalJob: -1}}
	// arrive is a session's first event: job 1 arrives with these stages.
	arrive := func(stages ...StageInfo) *EventRequest {
		return &EventRequest{Seq: 1, NewJobs: []JobInfo{{ID: 1, Stages: stages}}, Order: []int{1}, FreeExecutors: free}
	}
	stage := func(id int, parents, children []int) StageInfo {
		return StageInfo{ID: id, NumTasks: 2, TaskDuration: 1, CPUReq: 1, Parents: parents, Children: children}
	}
	chain := []StageInfo{stage(0, nil, []int{1}), stage(1, []int{0}, nil)}
	sess, err := cli.OpenSession(&OpenRequest{TotalExecutors: executors})
	if err != nil {
		t.Fatal(err)
	}
	// Stage 0 is a runnable root in both DAG shapes, so the agent does embed
	// the job (with no candidate it would return before touching the DAG).
	// The Seq 2 rows reach a session that holds job 1.
	// counted is a one-stage arrival whose stage carries these counters.
	counted := func(launched, done, parentsDone, running int) *EventRequest {
		st := stage(0, nil, nil)
		st.TasksLaunched, st.TasksDone, st.ParentsDone, st.Running = launched, done, parentsDone, running
		return arrive(st)
	}
	// second is an event on a session holding job 1, as edit leaves it.
	second := func(edit func(*EventRequest)) *EventRequest {
		req := &EventRequest{Seq: 2, Order: []int{1}, FreeExecutors: []ExecutorInfo{{ID: 0, Mem: 1, LocalJob: -1}}}
		edit(req)
		return req
	}
	stageDelta := func(sd StageDelta) *EventRequest {
		return second(func(r *EventRequest) { r.Deltas = []JobDelta{{ID: 1, Stages: []StageDelta{sd}}} })
	}
	nan, inf := math.NaN(), math.Inf(1)
	arrived := false
	for _, bad := range []struct {
		name string
		req  *EventRequest
	}{
		{"parent out of range", arrive(stage(0, nil, nil), stage(1, []int{7}, nil))},
		{"cycle", arrive(stage(0, nil, nil), stage(1, []int{2}, []int{2}), stage(2, []int{1}, []int{1}))},
		{"new stage done beyond launched", counted(1, 2, 0, 0)},
		{"new stage launched beyond its tasks", counted(3, 0, 0, 3)},
		{"new stage negative done", counted(0, -1, 0, 0)},
		{"new stage negative running", counted(1, 0, 0, -1)},
		{"new stage parents done beyond its parents", counted(0, 0, 1, 0)},
		{"infinite task duration", arrive(StageInfo{ID: 0, NumTasks: 2, TaskDuration: inf, CPUReq: 1})},
		{"NaN memory demand", arrive(StageInfo{ID: 0, NumTasks: 2, TaskDuration: 1, MemReq: nan, CPUReq: 1})},
		{"negative cpu demand", arrive(StageInfo{ID: 0, NumTasks: 2, TaskDuration: 1, CPUReq: -1})},
		{"new job negative executors", &EventRequest{Seq: 1, NewJobs: []JobInfo{{ID: 1, Executors: -1, Stages: chain}}, Order: []int{1}, FreeExecutors: free}},
		{"new job negative limit", &EventRequest{Seq: 1, NewJobs: []JobInfo{{ID: 1, Limit: -1, Stages: chain}}, Order: []int{1}, FreeExecutors: free}},
		{"new job NaN arrival", &EventRequest{Seq: 1, NewJobs: []JobInfo{{ID: 1, Arrival: nan, Stages: chain}}, Order: []int{1}, FreeExecutors: free}},
		{"job listed twice in order", second(func(r *EventRequest) { r.Order = []int{1, 1} })},
		{"delta for a job the order omits", &EventRequest{Seq: 2, Order: []int{}, Deltas: []JobDelta{{ID: 1}}}},
		{"delta for an unlisted new job", &EventRequest{Seq: 2, NewJobs: []JobInfo{{ID: 2, Stages: chain}}, Order: []int{1}, Deltas: []JobDelta{{ID: 2}}, FreeExecutors: free}},
		{"delta done beyond launched", stageDelta(StageDelta{Stage: 0, TasksLaunched: 1, TasksDone: 2})},
		{"delta launched beyond its tasks", stageDelta(StageDelta{Stage: 0, TasksLaunched: 3, Running: 3})},
		{"delta negative done", stageDelta(StageDelta{Stage: 0, TasksDone: -1})},
		{"delta negative running", stageDelta(StageDelta{Stage: 0, TasksLaunched: 1, Running: -1})},
		{"delta parents done beyond its parents", stageDelta(StageDelta{Stage: 1, ParentsDone: 2})},
		{"negative job executors", second(func(r *EventRequest) { r.Deltas = []JobDelta{{ID: 1, Executors: -1}} })},
		{"negative job limit", second(func(r *EventRequest) { r.Deltas = []JobDelta{{ID: 1, Limit: -1}} })},
		{"executor listed free twice", second(func(r *EventRequest) { r.FreeExecutors = append(r.FreeExecutors, r.FreeExecutors[0]) })},
		{"negative executor class", second(func(r *EventRequest) { r.FreeExecutors[0].Class = -1 })},
		{"NaN executor memory", second(func(r *EventRequest) { r.FreeExecutors[0].Mem = nan })},
		{"negative executor memory", second(func(r *EventRequest) { r.FreeExecutors[0].Mem = -1 })},
		{"NaN time", second(func(r *EventRequest) { r.Time = nan })},
		{"negative time", second(func(r *EventRequest) { r.Time = -1 })},
		{"infinite job seconds", second(func(r *EventRequest) { r.JobSeconds = inf })},
	} {
		if bad.req.Seq == 2 && !arrived {
			if err := call(sess.SID(), arrive(chain...)); err != nil {
				t.Fatalf("session unusable after rejected jobs: %v", err)
			}
			arrived = true
		}
		if err := call(sess.SID(), bad.req); err == nil || IsSeqGap(err) {
			t.Fatalf("%s: malformed event not rejected by validation: %v", bad.name, err)
		}
	}
	if err := call(sess.SID(), &EventRequest{Seq: 2, Order: []int{1}, Deltas: []JobDelta{{ID: 1}}, FreeExecutors: free}); err != nil {
		t.Fatalf("session unusable after rejected deltas: %v", err)
	}
	fresh, err := cli.OpenSession(&OpenRequest{TotalExecutors: executors})
	if err != nil {
		t.Fatalf("server unusable after rejected events: %v", err)
	}
	if err := call(fresh.SID(), arrive(chain...)); err != nil {
		t.Fatalf("fresh session after rejected events: %v", err)
	}
	if n := srv.Stats().Panics; n != 0 {
		t.Fatalf("%d events panicked; validation must reject them first", n)
	}
}

// evictOnce forces the wrapped session's eviction mid-run by opening a
// throwaway session on a MaxSessions=1 server.
type evictOnce struct {
	inner *SessionScheduler
	cli   *Client
	at    int
	n     int
	t     *testing.T
}

func (w *evictOnce) Schedule(s *sim.State) *sim.Action {
	w.n++
	if w.n == w.at {
		if _, err := w.cli.OpenSession(&OpenRequest{TotalExecutors: s.TotalExecutors}); err != nil {
			w.t.Error(err)
		}
	}
	return w.inner.Schedule(s)
}

// TestSessionSchedulerReopensAfterEviction verifies the client recovers
// from a server-side eviction: the event after the eviction fails once,
// the handle reopens with a fresh shadow, and the run still completes.
func TestSessionSchedulerReopensAfterEviction(t *testing.T) {
	const executors = 6
	_, cli := startSessionServer(t, SessionConfig{
		Default:     "fifo",
		MaxSessions: 1,
		IdleTimeout: -1,
	})
	errs := 0
	inner := &SessionScheduler{Client: cli, OnError: func(error) { errs++ }}
	defer inner.Close()
	jobs := workload.Batch(rand.New(rand.NewSource(21)), 5)
	res := sim.New(sim.SparkDefaults(executors), jobs, &evictOnce{inner: inner, cli: cli, at: 10, t: t}, rand.New(rand.NewSource(22))).Run()
	if errs == 0 {
		t.Fatal("eviction never surfaced — test exercised nothing")
	}
	if res.Deadlock || res.Unfinished != 0 {
		t.Fatalf("run did not recover from eviction: unfinished=%d deadlock=%v (errors %d)", res.Unfinished, res.Deadlock, errs)
	}
}

// TestSessionIdleEviction checks the idle sweep: a session untouched past
// the timeout is evicted by the next table access.
func TestSessionIdleEviction(t *testing.T) {
	srv, cli := startSessionServer(t, SessionConfig{
		Default:     "fifo",
		IdleTimeout: 30 * time.Millisecond,
	})
	s1, err := cli.OpenSession(&OpenRequest{TotalExecutors: 2})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	// Any table access sweeps; a fresh open is the natural trigger.
	if _, err := cli.OpenSession(&OpenRequest{TotalExecutors: 2}); err != nil {
		t.Fatal(err)
	}
	if got := srv.Sessions(); got != 1 {
		t.Fatalf("idle session not swept: %d live, want 1", got)
	}
	if st := srv.Stats(); st.EvictedIdle < 1 || st.EvictedLRU != 0 {
		t.Fatalf("stats after idle sweep = %+v, want EvictedIdle>=1 EvictedLRU=0", st)
	}
	js := jobStateFromInfo(&JobInfo{ID: 1, Stages: []StageInfo{{ID: 0, NumTasks: 1, TaskDuration: 1, CPUReq: 1}}})
	st := &sim.State{Jobs: []*sim.JobState{js}, FreeExecutors: []*sim.Executor{{ID: 0, Mem: 1}}, TotalExecutors: 2}
	if _, err := s1.Event(st); err == nil {
		t.Fatal("idle-evicted session still serves events")
	}
}

// TestSessionSeqOrdering rejects replayed and gapped event sequence
// numbers.
func TestSessionSeqOrdering(t *testing.T) {
	_, cli := startSessionServer(t, SessionConfig{Default: "fifo"})
	sess, err := cli.OpenSession(&OpenRequest{TotalExecutors: 2})
	if err != nil {
		t.Fatal(err)
	}
	var resp EventResponse
	ev := &EventRequest{SID: sess.SID(), Seq: 2} // gap: first event must be 1
	if err := cli.call("Decima.Event", ev, &resp); err == nil {
		t.Fatal("gapped seq accepted")
	}
	ev.Seq = 1
	if err := cli.call("Decima.Event", ev, &resp); err != nil {
		t.Fatal(err)
	}
	if err := cli.call("Decima.Event", ev, &resp); err == nil {
		t.Fatal("replayed seq accepted")
	}
}

// TestCloseReleasesSession verifies Close frees the slot and is idempotent.
func TestCloseReleasesSession(t *testing.T) {
	srv, cli := startSessionServer(t, SessionConfig{Default: "fifo"})
	sess, err := cli.OpenSession(&OpenRequest{TotalExecutors: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Sessions(); got != 1 {
		t.Fatalf("open sessions = %d, want 1", got)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Sessions(); got != 0 {
		t.Fatalf("open sessions after close = %d, want 0", got)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("second close errored: %v", err)
	}
}
