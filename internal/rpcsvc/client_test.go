package rpcsvc

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestClientConcurrentCallersAndRedial shares one Client among eight
// callers: one parked inside a blocking scheduler, seven driving sessions,
// while a ninth goroutine redials the Client in a loop. Callers never wait on
// each other's connections, so the seven keep completing events between
// redials; a redial fails the calls in flight on the old generation, the
// parked one included, so every call either succeeds or fails IsTransient. After the storm a fresh session
// completes, and the free list holds at most one idle connection per caller
// and no connection outside it. Run under -race it also guards the free list
// and the generation machinery.
func TestClientConcurrentCallersAndRedial(t *testing.T) {
	const callers, events = 7, 150
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	// Callers abandon a session on every transient failure; an unbounded
	// table keeps those from evicting the parked session, whose eviction
	// would wait for its lock behind the blocked decide.
	cfg := blockingConfig(0, entered, release)
	cfg.MaxSessions = -1
	_, cli := startSessionServer(t, cfg)

	blockSess, err := cli.OpenSession(&OpenRequest{Scheduler: "block", TotalExecutors: 2})
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() {
		_, err := blockSess.Event(overloadState(2))
		parked <- err
	}()
	<-entered

	var stop atomic.Bool
	var redials atomic.Int64
	redialer := make(chan struct{})
	go func() {
		defer close(redialer)
		for !stop.Load() {
			if err := cli.Redial(); err != nil {
				t.Errorf("redial: %v", err)
				return
			}
			redials.Add(1)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var done [callers]int
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sess *Session
			for i := 0; i < events; i++ {
				if sess == nil {
					s, err := cli.OpenSession(&OpenRequest{TotalExecutors: 2})
					if err != nil {
						if !IsTransient(err) {
							t.Errorf("caller %d: open: %v", w, err)
							return
						}
						continue
					}
					sess = s
				}
				if _, err := sess.Event(overloadState(2)); err != nil {
					if !IsTransient(err) {
						t.Errorf("caller %d: event: %v", w, err)
						return
					}
					sess = nil
					continue
				}
				done[w]++
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	<-redialer
	close(release)
	if err := <-parked; err != nil && !IsTransient(err) {
		t.Fatalf("parked event: %v", err)
	}
	if redials.Load() == 0 {
		t.Fatal("no redial ran during the storm")
	}
	for w, n := range done {
		if n == 0 {
			t.Errorf("caller %d completed no event beside the parked one", w)
		}
	}

	ss := &SessionScheduler{Client: cli, Name: "fifo"}
	res := sim.New(sim.SparkDefaults(4), workload.Batch(rand.New(rand.NewSource(3)), 3), ss, rand.New(rand.NewSource(4))).Run()
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 || res.Deadlock {
		t.Fatalf("session after the storm: unfinished=%d deadlock=%v", res.Unfinished, res.Deadlock)
	}
	cli.mu.Lock()
	idle, open := len(cli.idle), len(cli.conns)
	cli.mu.Unlock()
	if idle > callers+1 || open != idle {
		t.Fatalf("after the storm: %d idle, %d open connections; want at most %d idle and none outside the free list", idle, open, callers+1)
	}
}

// TestDeltaCommitAllocs bounds the session client's per-event garbage in
// steady state, where one job changes per event (session-stream's regime):
// delta and commit allocate the request, its Order, Deltas, stage-delta and
// FreeExecutors slices, and nothing per job — no index maps.
func TestDeltaCommitAllocs(t *testing.T) {
	jobs := workload.Batch(rand.New(rand.NewSource(7)), 20)
	fifo := sched.NewFIFO()
	allocs := -1.0
	probe := sim.SchedulerFunc(func(st *sim.State) *sim.Action {
		if allocs < 0 && st.Time > 0 && len(st.Jobs) > 10 && len(st.FreeExecutors) > 0 {
			s := &Session{total: st.TotalExecutors, shadow: make(map[int]*shadowJob)}
			s.commit(st, s.delta(st).Seq)
			stg := st.Jobs[3].Stages[0]
			running := stg.Running
			allocs = testing.AllocsPerRun(100, func() {
				stg.Running ^= 1
				s.commit(st, s.delta(st).Seq)
			})
			stg.Running = running
		}
		return fifo.Schedule(st)
	})
	sim.New(sim.SparkDefaults(10), jobs, probe, rand.New(rand.NewSource(8))).Run()
	if allocs < 0 {
		t.Fatal("no steady-state event to measure")
	}
	if allocs > 5 {
		t.Fatalf("delta+commit make %.1f allocations per event, want ≤ 5", allocs)
	}
}
