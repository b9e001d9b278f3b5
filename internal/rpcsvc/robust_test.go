package rpcsvc

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestTypedErrors pins the error taxonomy in-process and over the wire: the
// client must be able to discriminate eviction and seq-gap from transport
// failures using only the returned error.
func TestTypedErrors(t *testing.T) {
	_, cli := startSessionServer(t, SessionConfig{Default: "fifo"})

	// Unknown session over the wire → evicted, not transient.
	var resp EventResponse
	err := cli.call("Decima.Event", &EventRequest{SID: 999, Seq: 1}, &resp)
	if !IsSessionEvicted(err) {
		t.Fatalf("unknown-session error not classified as evicted: %v", err)
	}
	if IsTransient(err) || IsSeqGap(err) {
		t.Fatalf("eviction misclassified: transient=%v seqgap=%v", IsTransient(err), IsSeqGap(err))
	}

	// Seq gap over the wire.
	sess, err := cli.OpenSession(&OpenRequest{TotalExecutors: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = cli.call("Decima.Event", &EventRequest{SID: sess.SID(), Seq: 5}, &resp)
	if !IsSeqGap(err) {
		t.Fatalf("gapped seq not classified as seq gap: %v", err)
	}
	if IsSessionEvicted(err) || IsTransient(err) {
		t.Fatalf("seq gap misclassified: evicted=%v transient=%v", IsSessionEvicted(err), IsTransient(err))
	}

	// In-process wrapping must classify via errors.Is too.
	if !IsSessionEvicted(fmt.Errorf("ctx: %w", ErrSessionEvicted)) {
		t.Fatal("wrapped ErrSessionEvicted not recognised")
	}
	if !IsSeqGap(fmt.Errorf("ctx: %w", ErrSeqGap)) {
		t.Fatal("wrapped ErrSeqGap not recognised")
	}
	if !errors.Is(ErrSessionEvicted, ErrSessionEvicted) || IsTransient(ErrSeqGap) {
		t.Fatal("sentinel identity broken")
	}
}

// TestEvictionEquivalence is the wire-level acceptance bar for eviction
// recovery: a run whose session is forcibly evicted mid-stream must produce
// decisions identical to an uninterrupted in-process run — the reopened
// session's full-state delta plus a freshly minted (bit-identical) agent
// reconstruct exactly the state the lost mirror held.
func TestEvictionEquivalence(t *testing.T) {
	const executors = 6
	cfg := sim.SparkDefaults(executors)
	jobs := workload.Batch(rand.New(rand.NewSource(31)), 6)

	_, cli := startSessionServer(t, SessionConfig{
		Default:     "decima",
		New:         agentFactory(executors),
		MaxSessions: 1,
		IdleTimeout: -1,
	})

	local, err := agentFactory(executors)("decima", 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := sim.New(cfg, workload.CloneAll(jobs), scheduler.Sim(local), rand.New(rand.NewSource(8))).Run()

	errs := 0
	inner := &SessionScheduler{Client: cli, Name: "decima", OnError: func(error) { errs++ }}
	defer inner.Close()
	evicted := sim.New(cfg, workload.CloneAll(jobs),
		&evictOnce{inner: inner, cli: cli, at: 12, t: t},
		rand.New(rand.NewSource(8))).Run()

	if errs == 0 {
		t.Fatal("forced eviction never surfaced — test exercised nothing")
	}
	// The recovery is visible in the exported counters on both ends: the
	// client classified at least one eviction and reopened, and the retry
	// volume (attempts beyond answered events) matches the error count.
	cs := inner.Stats()
	if cs.Evicted < 1 || cs.Reopens < 1 {
		t.Fatalf("client stats after eviction recovery = %+v, want Evicted>=1 Reopens>=1", cs)
	}
	if cs.Attempts-cs.Events != uint64(errs) {
		t.Fatalf("retry volume %d (attempts %d - events %d) != observed errors %d", cs.Attempts-cs.Events, cs.Attempts, cs.Events, errs)
	}
	if runKey(ref) != runKey(evicted) {
		t.Fatalf("evicted run diverges from uninterrupted run:\n  local   %s\n  evicted %s", runKey(ref), runKey(evicted))
	}
	if evicted.Unfinished != 0 || evicted.Deadlock {
		t.Fatalf("evicted run incomplete: %+v", evicted)
	}
}

// restartOnce kills the server at scheduling event `at` and brings a fresh
// one up on the same address, so the client's next call hits a dead
// transport and must redial + reopen.
type restartOnce struct {
	inner sim.Scheduler
	srv   **Server
	cfg   SessionConfig
	at    int
	n     int
	t     *testing.T
}

func (w *restartOnce) Schedule(s *sim.State) *sim.Action {
	w.n++
	if w.n == w.at {
		addr := (*w.srv).Addr()
		if err := (*w.srv).Close(); err != nil {
			w.t.Error(err)
		}
		ns, err := ListenAndServeSessions(addr, w.cfg)
		if err != nil {
			w.t.Fatalf("restart on %s: %v", addr, err)
		}
		*w.srv = ns
	}
	return w.inner.Schedule(s)
}

// TestServerRestartEquivalence is the second half of the acceptance bar: a
// server killed and restarted mid-run (fresh process state, same address)
// must not change a session run's decisions — the client redials, reopens
// from its snapshot, and the deterministic scheduler picks up where the
// lost one left off.
func TestServerRestartEquivalence(t *testing.T) {
	const executors = 6
	cfg := sim.SparkDefaults(executors)
	jobs := workload.Batch(rand.New(rand.NewSource(41)), 6)
	scfg := SessionConfig{Default: "sjf-cp"}

	srv, err := ListenAndServeSessions("127.0.0.1:0", scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close() }()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	localS, err := scheduler.New("sjf-cp", scheduler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := sim.New(cfg, workload.CloneAll(jobs), scheduler.Sim(localS), rand.New(rand.NewSource(3))).Run()

	errs := 0
	ss := &SessionScheduler{Client: cli, Name: "sjf-cp", Backoff: time.Millisecond, OnError: func(error) { errs++ }}
	res := sim.New(cfg, workload.CloneAll(jobs),
		&restartOnce{inner: ss, srv: &srv, cfg: scfg, at: 15, t: t},
		rand.New(rand.NewSource(3))).Run()

	if errs == 0 {
		t.Fatal("restart never surfaced — test exercised nothing")
	}
	if ss.Degraded() {
		t.Fatal("client stuck degraded despite live replacement server")
	}
	if cs := ss.Stats(); cs.Transient < 1 || cs.Redials < 1 || cs.Reopens < 1 {
		t.Fatalf("client stats after restart recovery = %+v, want Transient>=1 Redials>=1 Reopens>=1", cs)
	}
	if runKey(ref) != runKey(res) {
		t.Fatalf("restarted run diverges from uninterrupted run:\n  local     %s\n  restarted %s", runKey(ref), runKey(res))
	}
	if res.Unfinished != 0 || res.Deadlock {
		t.Fatalf("restarted run incomplete: %+v", res)
	}
}

// TestFallbackWhenServerStaysDown checks graceful degradation: with the
// server permanently gone, a session scheduler with a Fallback completes
// the whole run locally — with decisions identical to running the fallback
// policy directly — instead of stalling into deadlock.
func TestFallbackWhenServerStaysDown(t *testing.T) {
	const executors = 5
	cfg := sim.SparkDefaults(executors)
	jobs := workload.Batch(rand.New(rand.NewSource(51)), 5)

	srv, err := ListenAndServeSessions("127.0.0.1:0", SessionConfig{Default: "fifo"})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv.Close() // server gone before the first event, and it stays gone

	localS, err := scheduler.New("fifo", scheduler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := sim.New(cfg, workload.CloneAll(jobs), scheduler.Sim(localS), rand.New(rand.NewSource(4))).Run()

	errs := 0
	ss := &SessionScheduler{
		Client: cli, Name: "fifo", Fallback: "fifo",
		MaxRetries: 2, Backoff: time.Millisecond,
		OnError: func(error) { errs++ },
	}
	res := sim.New(cfg, workload.CloneAll(jobs), ss, rand.New(rand.NewSource(4))).Run()

	if errs == 0 {
		t.Fatal("dead server never surfaced")
	}
	if !ss.Degraded() {
		t.Fatal("scheduler not degraded with the server down")
	}
	cs := ss.Stats()
	if cs.Fallbacks < 1 || cs.Transient < 1 {
		t.Fatalf("client stats after degradation = %+v, want Fallbacks>=1 Transient>=1", cs)
	}
	if cs.Fallbacks != uint64(res.Invocations) {
		t.Fatalf("fallback decisions %d != scheduling events %d (every event should decide locally)", cs.Fallbacks, res.Invocations)
	}
	if runKey(ref) != runKey(res) {
		t.Fatalf("fallback run diverges from local fallback policy:\n  local    %s\n  fallback %s", runKey(ref), runKey(res))
	}
	if res.Unfinished != 0 || res.Deadlock {
		t.Fatalf("fallback run incomplete: %+v", res)
	}
}

// TestConcurrentSessionsWithInjectedEvictions drives full simulations from
// many goroutines against a session table far too small for them, so LRU
// evictions hit live sessions constantly; the self-healing client must
// absorb every one (reopen or fall back) and each run must complete. Run
// under -race this also guards the redial/generation machinery.
func TestConcurrentSessionsWithInjectedEvictions(t *testing.T) {
	const executors = 4
	_, cli := startSessionServer(t, SessionConfig{
		Default:     "fifo",
		MaxSessions: 2,
		IdleTimeout: -1,
	})

	const n = 6
	var wg sync.WaitGroup
	fails := make(chan error, n)
	evictions := make(chan int, n)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			errs := 0
			ss := &SessionScheduler{
				Client: cli, Name: "fifo", Fallback: "fifo",
				Backoff: time.Millisecond,
				OnError: func(error) { errs++ },
			}
			defer ss.Close()
			jobs := workload.Batch(rand.New(rand.NewSource(seed)), 4)
			res := sim.New(sim.SparkDefaults(executors), jobs, ss, rand.New(rand.NewSource(seed))).Run()
			evictions <- errs
			if res.Unfinished != 0 || res.Deadlock {
				fails <- fmt.Errorf("seed %d: unfinished=%d deadlock=%v", seed, res.Unfinished, res.Deadlock)
			}
		}(int64(c + 1))
	}
	wg.Wait()
	close(fails)
	close(evictions)
	for err := range fails {
		t.Fatal(err)
	}
	total := 0
	for e := range evictions {
		total += e
	}
	if total == 0 {
		t.Fatal("no evictions observed with 6 runs on a 2-slot table — test exercised nothing")
	}
}

// panicOn wraps a scheduler and panics on its at-th decision (never when at
// is 0).
type panicOn struct {
	scheduler.Scheduler
	at, n int
}

func (p *panicOn) Decide(s *sim.State) (*sim.Action, error) {
	if p.n++; p.n == p.at {
		panic("scheduler blew up")
	}
	return p.Scheduler.Decide(s)
}

// TestEventPanicEvictsOnlyItsSession is per-event panic containment: the
// first "panicky" session's scheduler panics on its third decision. That
// event answers the evicted error, so the client reopens from its shadow and
// its run completes; Stats counts one panic; and a decima session on the
// same server, run afterwards, is still bit-identical to its in-process run.
func TestEventPanicEvictsOnlyItsSession(t *testing.T) {
	const executors = 6
	agents := agentFactory(executors)
	var panicky atomic.Int32
	srv, cli := startSessionServer(t, SessionConfig{
		Default: "decima",
		New: func(name string, seed int64) (scheduler.Scheduler, error) {
			if name != "panicky" {
				return agents(name, seed)
			}
			fifo, err := scheduler.New("fifo", scheduler.Options{})
			p := &panicOn{Scheduler: fifo}
			if panicky.Add(1) == 1 {
				p.at = 3
			}
			return p, err
		},
	})
	cfg := sim.SparkDefaults(executors)

	var errs []error
	ss := &SessionScheduler{Client: cli, Name: "panicky", OnError: func(e error) { errs = append(errs, e) }}
	res := sim.New(cfg, workload.Batch(rand.New(rand.NewSource(1)), 4), ss, rand.New(rand.NewSource(2))).Run()
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	if len(errs) != 1 || !IsSessionEvicted(errs[0]) {
		t.Fatalf("errors seen by the run = %v, want one evicted error", errs)
	}
	if res.Unfinished != 0 || res.Deadlock {
		t.Fatalf("run did not recover from the panic: unfinished=%d deadlock=%v", res.Unfinished, res.Deadlock)
	}
	if st := srv.Stats(); st.Panics != 1 || st.Sessions != 0 {
		t.Fatalf("stats after the panic: Panics=%d Sessions=%d, want 1 and 0", st.Panics, st.Sessions)
	}

	jobs := workload.Batch(rand.New(rand.NewSource(3)), 5)
	local, err := agents("decima", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.New(cfg, workload.CloneAll(jobs), scheduler.Sim(local), rand.New(rand.NewSource(4))).Run()
	other := &SessionScheduler{Client: cli}
	got := sim.New(cfg, workload.CloneAll(jobs), other, rand.New(rand.NewSource(4))).Run()
	if err := other.Close(); err != nil {
		t.Fatal(err)
	}
	if runKey(want) != runKey(got) {
		t.Fatalf("session after the panic diverges from in-process:\n  local   %s\n  session %s", runKey(want), runKey(got))
	}
}

// TestExecutorCountDelta checks the wire protocol's executor-pool delta:
// the session's TotalExecutors follows the client's observed pool size
// across events, and an unchanged pool sends 0 (wire-compatible no-op).
func TestExecutorCountDelta(t *testing.T) {
	_, cli := startSessionServer(t, SessionConfig{Default: "fifo"})
	sess, err := cli.OpenSession(&OpenRequest{TotalExecutors: 4})
	if err != nil {
		t.Fatal(err)
	}
	mkState := func(total int) *sim.State {
		js := jobStateFromInfo(&JobInfo{ID: 1, Stages: []StageInfo{{ID: 0, NumTasks: 8, TaskDuration: 1, CPUReq: 1}}})
		return &sim.State{
			Jobs:           []*sim.JobState{js},
			FreeExecutors:  []*sim.Executor{{ID: 0, Mem: 1}},
			TotalExecutors: total,
		}
	}
	// Unchanged pool → the delta field stays zero.
	if req := sess.delta(mkState(4)); req.TotalExecutors != 0 {
		t.Fatalf("unchanged pool sent TotalExecutors=%d, want 0", req.TotalExecutors)
	}
	// Shrunken pool → delta carries the new count and the server applies it.
	if req := sess.delta(mkState(3)); req.TotalExecutors != 3 {
		t.Fatalf("shrunken pool sent TotalExecutors=%d, want 3", req.TotalExecutors)
	}
	if _, err := sess.Event(mkState(3)); err != nil {
		t.Fatal(err)
	}
	// After commit the shadow tracks the new size: resending 3 is a no-op.
	if req := sess.delta(mkState(3)); req.TotalExecutors != 0 {
		t.Fatalf("acknowledged pool size resent: %d", req.TotalExecutors)
	}
	// Growth is a delta again.
	if req := sess.delta(mkState(5)); req.TotalExecutors != 5 {
		t.Fatalf("grown pool sent TotalExecutors=%d, want 5", req.TotalExecutors)
	}
}
