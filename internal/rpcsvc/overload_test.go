package rpcsvc

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/scheduler"
	"repro/internal/sim"
)

// overloadState is a minimal schedulable state: one job with a runnable
// stage and one free executor, so every policy's Decide actually runs.
func overloadState(total int) *sim.State {
	js := jobStateFromInfo(&JobInfo{ID: 1, Stages: []StageInfo{{ID: 0, NumTasks: 8, TaskDuration: 1, CPUReq: 1}}})
	return &sim.State{
		Jobs:           []*sim.JobState{js},
		FreeExecutors:  []*sim.Executor{{ID: 0, Mem: 1}},
		TotalExecutors: total,
	}
}

// blockingConfig builds a session config whose "block" policy parks inside
// Decide (holding its admission slot) until release closes — the lever the
// overload tests use to saturate MaxInflight deterministically.
func blockingConfig(maxInflight int, entered chan<- struct{}, release <-chan struct{}) SessionConfig {
	return SessionConfig{
		Default:     "fifo",
		MaxInflight: maxInflight,
		IdleTimeout: -1,
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
	}
}

// TestAdmissionGateSheds pins the admission gate's contract: with the
// in-flight bound saturated, events and opens shed with the typed
// overloaded error — and because shedding happens before the mirror
// mutates, the identical event (same seq) succeeds once the congestion
// clears. No reopen, no seq gap.
func TestAdmissionGateSheds(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv, cli := startSessionServer(t, blockingConfig(1, entered, release))

	blockSess, err := cli.OpenSession(&OpenRequest{Scheduler: "block", TotalExecutors: 2})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cli.OpenSession(&OpenRequest{TotalExecutors: 2})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := blockSess.Event(overloadState(2))
		done <- err
	}()
	<-entered // the block event now owns the only admission slot

	_, err = sess.Event(overloadState(2))
	if !IsOverloaded(err) {
		t.Fatalf("event past the admission bound not shed as overloaded: %v", err)
	}
	if IsTransient(err) || IsSessionEvicted(err) || IsSeqGap(err) {
		t.Fatalf("shed misclassified: transient=%v evicted=%v seqgap=%v",
			IsTransient(err), IsSessionEvicted(err), IsSeqGap(err))
	}
	if _, err := cli.OpenSession(&OpenRequest{TotalExecutors: 2}); !IsOverloaded(err) {
		t.Fatalf("open past the admission bound not shed as overloaded: %v", err)
	}

	st := srv.Stats()
	if st.Shed < 2 {
		t.Fatalf("Shed = %d after two shed requests, want >= 2", st.Shed)
	}
	if st.Inflight != 1 {
		t.Fatalf("Inflight gauge = %d with one parked event, want 1", st.Inflight)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("parked event failed after release: %v", err)
	}
	// Retry-safety: the shed left the session untouched, so resending the
	// same event (the client shadow never advanced) just works.
	if _, err := sess.Event(overloadState(2)); err != nil {
		t.Fatalf("retry of shed event failed: %v", err)
	}
}

// TestDeadlineBudgetSheds pins the deadline half of the overload plane: an
// event whose budget is already spent when its decision would start sheds
// with the overloaded marker (counted as a deadline miss), pre-mutation —
// and the same seq succeeds once the budget is dropped.
func TestDeadlineBudgetSheds(t *testing.T) {
	srv, cli := startSessionServer(t, SessionConfig{Default: "fifo", IdleTimeout: -1})
	sess, err := cli.OpenSession(&OpenRequest{TotalExecutors: 2})
	if err != nil {
		t.Fatal(err)
	}

	sess.Deadline = time.Nanosecond // spent before the handler can look at it
	if _, err := sess.Event(overloadState(2)); !IsOverloaded(err) {
		t.Fatalf("expired deadline budget not shed as overloaded: %v", err)
	}
	if st := srv.Stats(); st.DeadlineMiss < 1 {
		t.Fatalf("DeadlineMiss = %d after an expired-budget event, want >= 1", st.DeadlineMiss)
	}

	sess.Deadline = 0 // pre-overload wire form: no budget
	if _, err := sess.Event(overloadState(2)); err != nil {
		t.Fatalf("retry of deadline-shed event failed: %v", err)
	}
	sess.Deadline = time.Minute // generous budget passes
	if _, err := sess.Event(overloadState(2)); err != nil {
		t.Fatalf("event with generous deadline failed: %v", err)
	}

	// Opens carry the budget too: one that expires during scheduler minting
	// sheds instead of handing back a session it could not serve in time.
	if _, err := cli.OpenSession(&OpenRequest{TotalExecutors: 2, Deadline: time.Nanosecond}); !IsOverloaded(err) {
		t.Fatalf("expired open budget not shed as overloaded: %v", err)
	}
}

// TestSchedulerRidesOutOverload checks the client ladder's overloaded rung
// end to end: a SessionScheduler that hits a saturated server backs off with
// jitter and resends the identical event on the same session — no redial, no
// reopen — and completes once the congestion clears.
func TestSchedulerRidesOutOverload(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	_, cli := startSessionServer(t, blockingConfig(1, entered, release))

	blockSess, err := cli.OpenSession(&OpenRequest{Scheduler: "block", TotalExecutors: 2})
	if err != nil {
		t.Fatal(err)
	}

	ss := &SessionScheduler{Client: cli, Name: "fifo", MaxRetries: 30}
	ss.rng = rand.New(rand.NewSource(2)).Float64
	var once sync.Once
	ss.sleep = func(time.Duration) {
		// First backoff lifts the congestion; later ones wait it out for real
		// (the parked event needs a beat to vacate its slot).
		once.Do(func() { close(release) })
		time.Sleep(2 * time.Millisecond)
	}
	defer ss.Close()

	if act := ss.Schedule(overloadState(2)); act == nil {
		t.Fatal("clean warm-up event declined")
	}

	done := make(chan error, 1)
	go func() {
		_, err := blockSess.Event(overloadState(2))
		done <- err
	}()
	<-entered

	if act := ss.Schedule(overloadState(2)); act == nil {
		t.Fatal("event abandoned despite overload clearing within the retry budget")
	}
	if err := <-done; err != nil {
		t.Fatalf("parked event failed after release: %v", err)
	}
	cs := ss.Stats()
	if cs.Overloaded < 1 {
		t.Fatalf("client stats %+v, want Overloaded >= 1", cs)
	}
	if cs.Reopens != 0 || cs.Redials != 0 {
		t.Fatalf("overload recovery touched the session or transport: %+v (shed is pre-mutation; both must stay 0)", cs)
	}
	if ss.Degraded() {
		t.Fatal("scheduler degraded although the retry budget was never spent")
	}
}

// TestBackoffFullJitterDeterministic pins the backoff discipline: every
// sleep is a full-jitter draw under a ceiling that doubles per sleep and
// saturates at the cap, and the draw sequence is a pure function of Seed.
func TestBackoffFullJitterDeterministic(t *testing.T) {
	const (
		initial = 10 * time.Millisecond
		limit   = 80 * time.Millisecond
		n       = 8
	)
	seq := func(seed int64) ([]time.Duration, []time.Duration) {
		r := &SessionScheduler{Seed: seed}
		var sleeps []time.Duration
		r.sleep = func(d time.Duration) { sleeps = append(sleeps, d) }
		ceiling := initial
		var ceilings []time.Duration
		for i := 0; i < n; i++ {
			ceilings = append(ceilings, ceiling)
			ceiling = r.backoff(ceiling, limit)
		}
		return sleeps, ceilings
	}

	s1, c1 := seq(7)
	s2, _ := seq(7)
	s3, _ := seq(8)

	want := initial
	for i := 0; i < n; i++ {
		if c1[i] != want {
			t.Fatalf("ceiling %d = %v, want %v", i, c1[i], want)
		}
		if s1[i] < 0 || s1[i] >= want {
			t.Fatalf("sleep %d = %v outside full-jitter window [0, %v)", i, s1[i], want)
		}
		if want *= 2; want > limit {
			want = limit
		}
		if s1[i] != s2[i] {
			t.Fatalf("same seed diverged at draw %d: %v != %v", i, s1[i], s2[i])
		}
	}
	same := 0
	for i := range s1 {
		if s1[i] == s3[i] {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical jitter sequences")
	}
}

// TestMaxElapsedExhaustion checks the wall-clock cap: when retrying burns
// through MaxElapsed (clock injected, so instantly), the event fails with
// the typed ErrRetriesExhausted even though attempts remain, the Exhausted
// counter ticks, and the scheduler degrades onto its fallback.
func TestMaxElapsedExhaustion(t *testing.T) {
	srv, err := ListenAndServeSessions("127.0.0.1:0", SessionConfig{Default: "fifo"})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv.Close() // dead transport: every attempt is transient

	var exhausted []error
	ss := &SessionScheduler{
		Client: cli, Name: "fifo", Fallback: "fifo",
		MaxRetries: 10, MaxElapsed: 150 * time.Millisecond,
		Backoff: time.Millisecond,
		OnError: func(err error) {
			if IsRetriesExhausted(err) {
				exhausted = append(exhausted, err)
			}
		},
	}
	base := time.Unix(0, 0)
	calls := 0
	ss.now = func() time.Time { calls++; return base.Add(time.Duration(calls) * 100 * time.Millisecond) }
	ss.sleep = func(time.Duration) {}
	ss.rng = rand.New(rand.NewSource(1)).Float64

	act := ss.Schedule(overloadState(2))
	if len(exhausted) != 1 {
		t.Fatalf("got %d ErrRetriesExhausted deliveries, want exactly 1", len(exhausted))
	}
	if !ss.Degraded() {
		t.Fatal("scheduler not degraded after exhausting the wall budget")
	}
	if act == nil {
		t.Fatal("fallback declined after exhaustion")
	}
	cs := ss.Stats()
	if cs.Exhausted != 1 {
		t.Fatalf("Exhausted = %d, want 1", cs.Exhausted)
	}
	if cs.Attempts >= 10 {
		t.Fatalf("Attempts = %d: MaxElapsed never cut the attempt budget", cs.Attempts)
	}

	// Degraded probes that fail are not news: no second exhaustion report.
	if act := ss.Schedule(overloadState(2)); act == nil {
		t.Fatal("degraded fallback declined")
	}
	if len(exhausted) != 1 || ss.Stats().Exhausted != 1 {
		t.Fatalf("degraded probe re-reported exhaustion: deliveries=%d counter=%d", len(exhausted), ss.Stats().Exhausted)
	}
}
