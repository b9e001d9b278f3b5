package rpcsvc

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestRemoteFIFOMatchesLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	jobs := workload.Batch(rng, 6)
	cfg := sim.SparkDefaults(8)

	local := sim.New(cfg, workload.CloneAll(jobs), sched.NewFIFO(), rand.New(rand.NewSource(2))).Run()

	_, cli := startSessionServer(t, SessionConfig{Default: "fifo"})
	ss := &SessionScheduler{Client: cli}
	defer ss.Close()
	remote := sim.New(cfg, workload.CloneAll(jobs), ss, rand.New(rand.NewSource(2))).Run()

	if runKey(local) != runKey(remote) {
		t.Fatalf("remote FIFO diverges: %s vs %s", runKey(local), runKey(remote))
	}
}

func TestRemoteDecimaAgentCompletes(t *testing.T) {
	_, cli := startSessionServer(t, SessionConfig{Default: "decima", New: agentFactory(6)})
	ss := &SessionScheduler{Client: cli}
	defer ss.Close()

	rng := rand.New(rand.NewSource(4))
	jobs := workload.Batch(rng, 4)
	res := sim.New(sim.SparkDefaults(6), jobs, ss, rng).Run()
	if res.Deadlock || res.Unfinished != 0 {
		t.Fatalf("remote agent failed: unfinished=%d deadlock=%v", res.Unfinished, res.Deadlock)
	}
}

// TestStateRoundTrip sends a live mid-run simulator state through the wire
// path — the client's first delta (every job in full) applied to a fresh
// server-side mirror — and checks that the state the scheduler then sees
// preserves everything schedulers look at.
func TestStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	jobs := workload.Batch(rng, 3)
	tripped := false
	probe := sim.SchedulerFunc(func(s *sim.State) *sim.Action {
		if !tripped && len(s.Jobs) == 3 && s.Time > 0 {
			tripped = true
			roundTrip(t, s)
		}
		for _, j := range s.Jobs {
			for _, st := range j.Stages {
				if st.Runnable() && s.FreeCount(st) > 0 {
					return &sim.Action{Stage: st, Limit: s.TotalExecutors, Class: -1}
				}
			}
		}
		return nil
	})
	sim.New(sim.SparkDefaults(5), jobs, probe, rng).Run()
	if !tripped {
		t.Fatal("no state captured")
	}
}

// roundTrip applies Session.delta(captured) to a mirror opened with the
// captured cluster constants and compares the state the mirror decides on.
func roundTrip(t *testing.T, captured *sim.State) {
	t.Helper()
	var back sim.State
	mirror := &session{
		sched: scheduler.Func(func(s *sim.State) (*sim.Action, error) {
			back = *s
			return nil, nil
		}),
		total:     captured.TotalExecutors,
		moveDelay: captured.MoveDelay,
		jobs:      make(map[int]*sim.JobState),
		execs:     make(map[int]*sim.Executor),
	}
	client := &Session{total: captured.TotalExecutors, shadow: make(map[int]*shadowJob)}
	if _, err := mirror.event(client.delta(captured), time.Time{}); err != nil {
		t.Fatal(err)
	}
	if back.Time != captured.Time || back.JobSeconds != captured.JobSeconds ||
		back.TotalExecutors != captured.TotalExecutors || back.MoveDelay != captured.MoveDelay {
		t.Fatal("scalar state fields lost")
	}
	if len(back.Jobs) != len(captured.Jobs) {
		t.Fatal("jobs lost")
	}
	for i, j := range captured.Jobs {
		bj := back.Jobs[i]
		if bj.Job.ID != j.Job.ID || bj.Executors != j.Executors || bj.Limit != j.Limit || bj.StagesDone != j.StagesDone {
			t.Fatal("job fields lost")
		}
		if len(bj.RunnableStages()) != len(j.RunnableStages()) {
			t.Fatal("runnable set changed")
		}
		for si, st := range j.Stages {
			bs := bj.Stages[si]
			if bs.TasksDone != st.TasksDone || bs.TasksLaunched != st.TasksLaunched ||
				bs.ParentsDone != st.ParentsDone || bs.Running != st.Running || bs.Completed != st.Completed {
				t.Fatal("stage counters lost")
			}
			if len(bs.Stage.Parents) != len(st.Stage.Parents) {
				t.Fatal("adjacency lost")
			}
		}
	}
	if len(back.FreeExecutors) != len(captured.FreeExecutors) {
		t.Fatal("executors lost")
	}
	// Locality must survive: same set of (exec, local-job) pairs.
	for i, e := range captured.FreeExecutors {
		be := back.FreeExecutors[i]
		if be.ID != e.ID || be.Class != e.Class || be.Mem != e.Mem {
			t.Fatal("executor fields lost")
		}
		wantLocal := e.BoundTo != nil && jobInState(captured, e.BoundTo)
		if wantLocal != (be.BoundTo != nil) || wantLocal && be.BoundTo.Job.ID != e.BoundTo.Job.ID {
			t.Fatal("locality lost")
		}
	}
}

func jobInState(s *sim.State, j *sim.JobState) bool {
	for _, x := range s.Jobs {
		if x == j {
			return true
		}
	}
	return false
}

func TestActionFromResponseErrors(t *testing.T) {
	js := jobStateFromInfo(&JobInfo{ID: 7, Stages: []StageInfo{{ID: 0, NumTasks: 1, TaskDuration: 1, CPUReq: 1}}})
	st := &sim.State{TotalExecutors: 2, Jobs: []*sim.JobState{js}}
	if _, err := ActionFromResponse(&ScheduleResponse{HasAction: true, JobID: 999, StageID: 0}, st); err == nil {
		t.Fatal("unknown job accepted")
	}
	if _, err := ActionFromResponse(&ScheduleResponse{HasAction: true, JobID: 7, StageID: 5}, st); err == nil {
		t.Fatal("out-of-range stage accepted")
	}
	act, err := ActionFromResponse(&ScheduleResponse{HasAction: false}, st)
	if err != nil || act != nil {
		t.Fatal("no-action response mishandled")
	}
}

// TestConcurrentClients drives 4 runs at once, each over its own
// connection, and requires every one to equal an in-process run of the same
// scheduler on the same jobs and seed.
func TestConcurrentClients(t *testing.T) {
	srv, _ := startSessionServer(t, SessionConfig{Default: "fifo"})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			jobs := workload.Batch(rand.New(rand.NewSource(seed)), 3)
			want := sim.New(sim.SparkDefaults(4), workload.CloneAll(jobs), sched.NewFIFO(), rand.New(rand.NewSource(seed))).Run()
			cli, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			ss := &SessionScheduler{Client: cli, OnError: func(e error) { t.Errorf("client %d: %v", seed, e) }}
			defer ss.Close()
			got := sim.New(sim.SparkDefaults(4), jobs, ss, rand.New(rand.NewSource(seed))).Run()
			if want.Unfinished != 0 || runKey(got) != runKey(want) {
				t.Errorf("client %d: remote run %s, in-process %s (unfinished %d)", seed, runKey(got), runKey(want), want.Unfinished)
			}
		}(int64(c))
	}
	wg.Wait()
}

// TestSessionSchedulerDeclinesWhenServerGone: with the server gone and no
// Fallback, every failure reaches OnError and the scheduler declines, so the
// simulation deadlocks instead of crashing.
func TestSessionSchedulerDeclinesWhenServerGone(t *testing.T) {
	srv, cli := startSessionServer(t, SessionConfig{Default: "fifo"})
	srv.Close()
	var got error
	ss := &SessionScheduler{Client: cli, MaxRetries: -1, Backoff: time.Microsecond, OnError: func(e error) { got = e }}
	rng := rand.New(rand.NewSource(7))
	jobs := workload.Batch(rng, 1)
	res := sim.New(sim.SparkDefaults(2), jobs, ss, rng).Run()
	if got == nil {
		t.Fatal("error callback never fired")
	}
	if !res.Deadlock {
		t.Fatal("simulation should deadlock when the service is gone")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := ListenAndServeSessions("127.0.0.1:0", SessionConfig{Default: "fifo"})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}
