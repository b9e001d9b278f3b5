package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dag"
)

// failureRegimes enumerates every combination of the three failure event
// families (churn, stragglers, task retry), alone and together, so the
// determinism test exercises each new event kind.
var failureRegimes = map[string]FailureConfig{
	"churn":      {ChurnRate: 0.2, MTTR: 5},
	"churn-perm": {ChurnRate: 0.05, ExtraExecutors: 3, ExtraJoinMean: 4},
	"stragglers": {StragglerProb: 0.2, StragglerAlpha: 1.5},
	"retry":      {TaskFailProb: 0.1, MaxRetries: 20},
	"lossy":      {TaskFailProb: 0.05, MaxRetries: 10, StragglerProb: 0.1},
	"all": {ChurnRate: 0.1, MTTR: 8, ExtraExecutors: 2, ExtraJoinMean: 6,
		StragglerProb: 0.1, StragglerAlpha: 2, TaskFailProb: 0.05, MaxRetries: 20},
}

func failureJobs(rng *rand.Rand, n int) []*dag.Job {
	var jobs []*dag.Job
	for i := 0; i < n; i++ {
		j := dag.Random(rng, 5, 0.3)
		j.ID = i
		j.Arrival = float64(i) * 2
		jobs = append(jobs, j)
	}
	return jobs
}

// TestFailureDeterminism checks same seed + same regime ⇒ bitwise-identical
// Result under every failure regime, including per-job failure counters and
// churn totals.
func TestFailureDeterminism(t *testing.T) {
	for name, fc := range failureRegimes {
		t.Run(name, func(t *testing.T) {
			run := func() *Result {
				rng := rand.New(rand.NewSource(7))
				cfg := SparkDefaults(6)
				cfg.Failures = fc
				return New(cfg, failureJobs(rng, 8), greedy(), rng).Run()
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("nondeterministic result under %s:\n%+v\nvs\n%+v", name, a, b)
			}
		})
	}
}

// TestZeroFailureConfigUnchanged checks that the zero FailureConfig leaves a
// run bitwise identical to a config that never mentions failures (no extra
// RNG draws, no behavioural drift).
func TestZeroFailureConfigUnchanged(t *testing.T) {
	run := func(cfg Config) *Result {
		rng := rand.New(rand.NewSource(3))
		return New(cfg, failureJobs(rng, 6), greedy(), rng).Run()
	}
	plain := run(SparkDefaults(5))
	zeroed := SparkDefaults(5)
	zeroed.Failures = FailureConfig{}
	if got := run(zeroed); !reflect.DeepEqual(plain, got) {
		t.Fatalf("zero FailureConfig changed the run: %+v vs %+v", plain, got)
	}
	if plain.Retries != 0 || plain.FailedTasks != 0 || plain.Stragglers != 0 ||
		plain.ChurnLeaves != 0 || plain.ChurnJoins != 0 || len(plain.Failed) != 0 {
		t.Fatalf("clean run reported failure activity: %+v", plain)
	}
}

// TestChurnReschedulesAndCompletes checks that executors leaving mid-task
// re-enqueue the interrupted attempt and, with rejoins enabled, every job
// still completes.
func TestChurnReschedulesAndCompletes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := SparkDefaults(4)
	cfg.Failures = FailureConfig{ChurnRate: 0.5, MTTR: 3}
	res := New(cfg, failureJobs(rng, 6), greedy(), rng).Run()
	if res.Unfinished != 0 || res.Deadlock {
		t.Fatalf("churned run did not finish: unfinished=%d deadlock=%v", res.Unfinished, res.Deadlock)
	}
	if res.ChurnLeaves == 0 {
		t.Fatal("no churn events fired at rate 0.5/s")
	}
	if res.ChurnJoins == 0 {
		t.Fatal("no rejoin events despite MTTR > 0")
	}
	if res.Retries == 0 {
		t.Fatal("no task was interrupted by churn (expected at least one mid-task leave)")
	}
}

// TestPermanentChurnShrinksPool checks departures without MTTR shrink
// State.TotalExecutors as observed by the scheduler.
func TestPermanentChurnShrinksPool(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := Idealized(8)
	cfg.Failures = FailureConfig{ChurnRate: 0.5}
	minSeen := 8
	// Cap parallelism at half the pool so free executors remain: scheduling
	// events only consult the scheduler while some executor is free, and this
	// probe must get called after departures to observe the shrunken pool.
	probe := SchedulerFunc(func(s *State) *Action {
		if s.TotalExecutors < minSeen {
			minSeen = s.TotalExecutors
		}
		for _, st := range s.RunnableStages() {
			if s.FreeCount(st) > 0 {
				return &Action{Stage: st, Limit: 4, Class: -1}
			}
		}
		return nil
	})
	res := New(cfg, []*dag.Job{singleStageJob(0, 200, 1)}, probe, rng).Run()
	if minSeen >= 8 {
		t.Fatalf("scheduler never observed a shrunken pool (min %d)", minSeen)
	}
	if res.ChurnLeaves == 0 {
		t.Fatal("no departures recorded")
	}
	// The run must terminate either by completing or — if every executor
	// departed — by deadlock, but never hang (churn chain drains with work).
	if res.Unfinished != 0 && !res.Deadlock {
		t.Fatalf("unfinished without deadlock: %+v", res)
	}
}

// TestExtraExecutorsGrowPool checks late-arriving executors raise
// TotalExecutors above the initial size and speed up the tail of the run.
func TestExtraExecutorsGrowPool(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := Idealized(2)
	cfg.Failures = FailureConfig{ExtraExecutors: 6, ExtraJoinMean: 1}
	maxSeen := 0
	probe := SchedulerFunc(func(s *State) *Action {
		if s.TotalExecutors > maxSeen {
			maxSeen = s.TotalExecutors
		}
		for _, st := range s.RunnableStages() {
			if s.FreeCount(st) > 0 {
				return &Action{Stage: st, Limit: s.TotalExecutors, Class: -1}
			}
		}
		return nil
	})
	res := New(cfg, []*dag.Job{singleStageJob(0, 100, 1)}, probe, rng).Run()
	if res.Unfinished != 0 {
		t.Fatal("job unfinished")
	}
	if maxSeen <= 2 {
		t.Fatalf("pool never grew past initial size (max %d)", maxSeen)
	}
	if res.ChurnJoins != 6 {
		t.Fatalf("ChurnJoins = %d, want 6", res.ChurnJoins)
	}
}

// TestTaskRetryAccounting checks failed attempts are retried within budget
// and counted in JobRecord/Result.
func TestTaskRetryAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := Idealized(4)
	cfg.Failures = FailureConfig{TaskFailProb: 0.3, MaxRetries: 1000}
	res := New(cfg, []*dag.Job{singleStageJob(0, 50, 1)}, greedy(), rng).Run()
	if res.Unfinished != 0 || len(res.Failed) != 0 {
		t.Fatalf("run did not complete cleanly: %+v", res)
	}
	if res.FailedTasks == 0 || res.Retries == 0 {
		t.Fatalf("no failures recorded at p=0.3: failed=%d retries=%d", res.FailedTasks, res.Retries)
	}
	rec := res.Completed[0]
	if rec.FailedTasks != res.FailedTasks || rec.Retries != res.Retries {
		t.Fatalf("per-job counters not threaded into record: %+v vs %+v", rec, res)
	}
	// Wasted partial work must show up as executed work beyond the baseline.
	if rec.WorkExecuted <= rec.TotalWork {
		t.Fatalf("WorkExecuted %v not above TotalWork %v despite wasted attempts", rec.WorkExecuted, rec.TotalWork)
	}
}

// TestJobFailsPastMaxRetries checks a stage exhausting its retry budget
// abandons the job into Result.Failed and the run still terminates.
func TestJobFailsPastMaxRetries(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := Idealized(2)
	cfg.Failures = FailureConfig{TaskFailProb: 1, MaxRetries: 2}
	res := New(cfg, []*dag.Job{singleStageJob(0, 5, 1), singleStageJob(1, 5, 1)}, greedy(), rng).Run()
	if res.Unfinished != 0 {
		t.Fatalf("failed jobs left unfinished: %+v", res)
	}
	if len(res.Completed) != 0 || res.FailedCount() != 2 {
		t.Fatalf("completed=%d failed=%d, want 0/2", len(res.Completed), res.FailedCount())
	}
	for _, rec := range res.Failed {
		if !rec.Failed {
			t.Fatalf("record not marked failed: %+v", rec)
		}
		if rec.Completion < rec.Arrival {
			t.Fatalf("bad abandonment time: %+v", rec)
		}
	}
}

// TestStragglersInflateDurations checks the heavy-tailed multiplier fires and
// only lengthens the run.
func TestStragglersInflateDurations(t *testing.T) {
	mk := func(fc FailureConfig) *Result {
		rng := rand.New(rand.NewSource(6))
		cfg := Idealized(4)
		cfg.Failures = fc
		return New(cfg, []*dag.Job{singleStageJob(0, 40, 1)}, greedy(), rng).Run()
	}
	clean := mk(FailureConfig{})
	slow := mk(FailureConfig{StragglerProb: 0.25})
	if slow.Stragglers == 0 {
		t.Fatal("no stragglers drawn at p=0.25")
	}
	if slow.Makespan <= clean.Makespan {
		t.Fatalf("stragglers did not lengthen the run: %v vs %v", slow.Makespan, clean.Makespan)
	}
}

// TestChurnTerminatesWithDecliningScheduler checks the self-re-arming churn
// chain cannot keep an otherwise-dead simulation alive: a scheduler that
// never schedules must still drain the queue and report deadlock.
func TestChurnTerminatesWithDecliningScheduler(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cfg := Idealized(4)
	cfg.Failures = FailureConfig{ChurnRate: 10, MTTR: 1}
	decline := SchedulerFunc(func(s *State) *Action { return nil })
	res := New(cfg, []*dag.Job{singleStageJob(0, 5, 1)}, decline, rng).Run()
	if !res.Deadlock {
		t.Fatalf("expected deadlock, got %+v", res)
	}
	if res.Unfinished != 1 {
		t.Fatalf("unfinished = %d, want 1", res.Unfinished)
	}
}

// BenchmarkSimulateLossy measures simulator throughput under the combined
// failure regime and reports failure-activity counters as custom metrics.
func BenchmarkSimulateLossy(b *testing.B) {
	b.ReportAllocs()
	var retries, failedTasks, churn int
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		var jobs []*dag.Job
		for j := 0; j < 10; j++ {
			d := dag.Random(rng, 8, 0.3)
			d.ID = j
			jobs = append(jobs, d)
		}
		cfg := SparkDefaults(16)
		cfg.Failures = FailureConfig{
			ChurnRate: 0.05, MTTR: 5,
			StragglerProb: 0.1, TaskFailProb: 0.05, MaxRetries: 100,
		}
		res := New(cfg, jobs, greedy(), rng).Run()
		retries += res.Retries
		failedTasks += res.FailedTasks
		churn += res.ChurnLeaves
	}
	b.ReportMetric(float64(retries)/float64(b.N), "retries/op")
	b.ReportMetric(float64(failedTasks)/float64(b.N), "failedtasks/op")
	b.ReportMetric(float64(churn)/float64(b.N), "churn/op")
}
