package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/rl"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// trainSpec sizes the researcher's loop: rl.Trainer iterations on the
// shipping training configuration, then in-process greedy evaluation of an
// agent the trainer produced — the two things a researcher waits on.
type trainSpec struct {
	executors int
	jobs      int // per training arrival sequence
	episodes  int // per iteration
	workers   int // rollout pool
	// warmDecisions sizes the discarded warm-up pass: whole iterations until
	// that many decisions have been rolled out, so that what a set-up costs
	// follows the work and not how long the episodes the seed drew happen to
	// be. Its per-iteration parameter hashes are what the measured pass must
	// reproduce, and the agent it ends on is the one evaluated.
	warmDecisions float64
	// trainShare is the part of the measured window spent training; the rest
	// evaluates.
	trainShare float64
	evalJobs   int // per evaluation batch
	evalPool   int // distinct evaluation batches
}

// Every episode runs to completion. rl.Trainer draws each iteration's
// horizon from an exponential whose mean is MaxHorizon, so a horizon near
// the trace's makespan would make episode length — and with it every
// per-iteration number — a lottery of the seed; completeHorizon puts the
// mean so far out that no draw ever cuts an episode short, and iterations
// differ only by the jobs they drew.
const completeHorizon = 1e12

var trainReplay = trainSpec{
	executors: 15, jobs: 6, episodes: 8, workers: 2,
	warmDecisions: 12000, trainShare: 0.6, evalJobs: 20, evalPool: 48,
}

func (s trainSpec) smoke() trainSpec {
	s.jobs, s.episodes, s.warmDecisions, s.evalJobs, s.evalPool = 3, 2, 1, 6, 2
	return s
}

// trainer rebuilds agent and trainer from fixed seeds: the same seed always
// trains the same model, which is the workload's oracle.
func (s trainSpec) trainer(seed int64, workers int) (*rl.Trainer, rl.JobSource, sim.Config) {
	agent := core.New(core.DefaultConfig(s.executors), rand.New(rand.NewSource(agentSeed)))
	cfg := rl.DefaultConfig()
	cfg.EpisodesPerIter = s.episodes
	cfg.Workers = workers
	cfg.NoCurriculum = true
	cfg.MaxHorizon = completeHorizon
	iat := workload.IATForLoad(load, s.executors)
	src := func(rng *rand.Rand) []*dag.Job { return workload.Poisson(rng, s.jobs, iat) }
	return rl.NewTrainer(agent, cfg, rand.New(rand.NewSource(seed))), src, sim.SparkDefaults(s.executors)
}

// paramHash fingerprints the agent's parameters bit for bit.
func paramHash(a *core.Agent) uint64 {
	h := uint64(fnvOffset)
	for _, p := range a.Params() {
		for _, v := range p.Data {
			h = mix(h, int64(math.Float64bits(v)))
		}
	}
	return h
}

// trainPass is a run of training iterations with its per-iteration record.
type trainPass struct {
	trainer   *rl.Trainer
	iterMS    []float64
	decisions float64 // rolled out and learned from
	hashes    []uint64
	wall      time.Duration // Σ iteration time
}

// train iterates until done says so (it is asked after every iteration),
// hashing the parameters after each of the first hashN.
func (s trainSpec) train(seed int64, workers, hashN int, spans *spanLog, done func(*trainPass) bool) *trainPass {
	tr, src, simCfg := s.trainer(seed, workers)
	p := &trainPass{trainer: tr}
	for i := 0; i == 0 || !done(p); i++ {
		t0 := time.Now()
		var sp int
		if spans != nil {
			sp = spans.begin("rl.iteration", 0, i, t0)
		}
		st := tr.Iteration(src, simCfg)
		t1 := time.Now()
		if spans != nil {
			spans.end(sp, t1)
		}
		p.wall += t1.Sub(t0)
		p.iterMS = append(p.iterMS, float64(t1.Sub(t0))/1e6)
		p.decisions += st.MeanSteps * float64(s.episodes)
		if i < hashN {
			p.hashes = append(p.hashes, paramHash(tr.Agent))
		}
	}
	return p
}

// run is one pass of the workload: train from the warm-up's seeds for
// trainShare of the window, then evaluate the warm-up's agent for the rest.
func (s trainSpec) run(su *trainSetup, seed int64, window time.Duration, spans *spanLog) (*trainPass, *evalRun) {
	trainFor := time.Duration(float64(window) * s.trainShare)
	tp := s.train(seed, s.workers, len(su.hashes), spans, forTime(trainFor))
	return tp, s.evaluate(su.agent, su.pool, pass{budget: window - trainFor, spans: spans})
}

// forIters and forTime are train's two ways of ending a pass.
func forIters(n int) func(*trainPass) bool {
	return func(p *trainPass) bool { return len(p.iterMS) >= n }
}

func forTime(d time.Duration) func(*trainPass) bool {
	return func(p *trainPass) bool { return p.wall >= d }
}

// evalRun is the evaluation phase's observations.
type evalRun struct {
	lat, open []int64
	sessions  []session
	events    int
}

// evaluate drives batched-arrival episodes in-process under a greedy copy
// of agent until budget is spent (or up to the event cap): the simulator is
// the client, the time it spends inside Schedule is the event latency, and
// the first decision of each episode — a Reset agent embedding every job
// from scratch — is the open sample. The agent is the one the warm-up
// iterations trained, whose parameters the oracle pins: what a measured pass
// of no fixed length trains differs from run to run, and what is timed here
// should depend on the code.
func (s trainSpec) evaluate(agent *core.Agent, pool []*trace, ps pass) *evalRun {
	ev := &evalRun{}
	a := greedyCopy(agent)
	var deadline time.Time
	if ps.budget > 0 {
		deadline = time.Now().Add(ps.budget)
	}
	budget := ps.maxEvents
	for i := 0; ; i++ {
		tr := pool[i%len(pool)]
		a.Reset()
		ts := newTimedSched(a)
		ts.deadline, ts.maxEvents = deadline, budget
		ts.open, ts.lat, ts.spans, ts.client = &ev.open, &ev.lat, ps.spans, 1
		res := tr.run(ts)
		if ts.n > 0 {
			ev.sessions = append(ev.sessions, session{outcome: outcomeOf(ts, res), trace: tr, cut: ts.cut})
			ev.events += ts.n
		}
		if ps.maxEvents > 0 {
			if budget -= ts.n; budget <= 0 {
				return ev
			}
		}
		if ts.cut {
			return ev
		}
	}
}

func greedyCopy(a *core.Agent) *core.Agent {
	c := a.Clone(rand.New(rand.NewSource(agentSeed)))
	c.Greedy = true
	return c
}

// verify replays every evaluated episode under a fresh copy of agent and
// demands the same outcome bit for bit: evaluation must not depend on what
// the agent decided before.
func (ev *evalRun) verify(agent *core.Agent) (avgJCT float64, err error) {
	mk := func(string, int64) (scheduler.Scheduler, error) { return greedyCopy(agent), nil }
	jct, err := verifySessions(mk, 0, ev.sessions)
	if err != nil {
		return 0, fmt.Errorf("evaluation differs from its replay: %w", err)
	}
	return mean(jct), nil
}

// evalTraces draws the evaluation batches from the seed.
func (s trainSpec) evalTraces(seed int64) []*trace {
	out := make([]*trace, s.evalPool)
	for i := range out {
		out[i] = batchTrace(i, seed*1000003+7777+int64(i), s.evalJobs, s.executors)
	}
	return out
}

// trainSetup is the warmed-up state before the measured pass.
type trainSetup struct {
	pool   []*trace
	agent  *core.Agent // as the warm-up iterations left it
	hashes []uint64    // parameter hash after each warm-up iteration
	genMS  float64
}

// setUpTraining generates the evaluation inputs and runs the discarded
// warm-up pass: warmDecisions' worth of iterations from the same seeds the
// measured pass starts from, plus one evaluation episode.
func setUpTraining(spec trainSpec, seed int64) *trainSetup {
	t0 := time.Now()
	su := &trainSetup{pool: spec.evalTraces(seed)}
	su.genMS = float64(time.Since(t0)) / 1e6
	const hashAll = 1 << 30
	warm := spec.train(seed, spec.workers, hashAll, nil, func(p *trainPass) bool { return p.decisions >= spec.warmDecisions })
	su.agent, su.hashes = warm.trainer.Agent, warm.hashes
	spec.evaluate(su.agent, su.pool[:1], pass{maxEvents: 200})
	return su
}
