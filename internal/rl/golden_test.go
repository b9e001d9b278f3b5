package rl

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Golden vectors. The rollout digests were captured at cbdf5df, before the
// per-decision tracked forward/decide and the direct tape were deleted: the
// schedules below must not move, or a change moved arithmetic. The parameter
// digests were re-captured when the average-reward shift was deleted and one
// training recipe replaced the old DefaultConfig: 904c991, the commit before
// that change, with its Config set to the recipe, gives these same digests,
// so the refactor itself moved no arithmetic. Floating-point contraction differs
// across architectures, so the constants hold on amd64 only.
const (
	goldenParams         = 0x2d927cb1445f1425 // 3 rl.Trainer iterations, any worker count
	goldenSampledRollout = 0xeec0692b0df42c8b
	goldenGreedyRollout  = 0x1591e2a7c1e69291
)

// goldenReplayShape pins the parameters and per-iteration statistics after 5
// iterations at the train-replay shape, any worker count (captured as
// goldenParams above).
const goldenReplayShape = 0xe72038261739f24a

// digest is an FNV-1a hash over 64-bit words.
type digest struct{ hash.Hash64 }

func (d digest) add(words ...uint64) {
	for _, w := range words {
		d.Write(binary.LittleEndian.AppendUint64(nil, w))
	}
}

// rolloutDigest runs one episode of a fixed agent to completion and hashes
// every action (time, job, stage, limit, class) and the outcome.
func rolloutDigest(greedy bool) uint64 {
	agent := smallAgent(300)
	agent.Greedy = greedy
	rng := rand.New(rand.NewSource(301))
	agent.SetRNG(rng)
	d := digest{fnv.New64a()}
	probe := sim.SchedulerFunc(func(s *sim.State) *sim.Action {
		act := agent.Schedule(s)
		if act != nil {
			d.add(math.Float64bits(s.Time), uint64(act.Stage.Job.Job.ID), uint64(act.Stage.Stage.ID), uint64(act.Limit), uint64(act.Class))
		}
		return act
	})
	jobs := smallSource(4)(rand.New(rand.NewSource(302)))
	res := sim.New(sim.SparkDefaults(5), workload.CloneAll(jobs), probe, rng).Run()
	d.add(math.Float64bits(res.JobSeconds), math.Float64bits(res.Makespan), uint64(res.Invocations))
	return d.Sum64()
}

// replayShapeTrainer is the ledger's train-replay workload (bench/train.go):
// the default 15-executor model, 6 Poisson jobs at load 0.70 per arrival
// sequence, 8 episodes per iteration, every episode run to completion. Its
// stacked replay matrices are thousands of rows tall, so unlike the smallAgent
// fixtures it runs the kernels over tall matrices on tapes of many slabs.
func replayShapeTrainer(workers int, seed int64) (*Trainer, JobSource, sim.Config) {
	const executors = 15
	agent := core.New(core.DefaultConfig(executors), rand.New(rand.NewSource(42)))
	cfg := DefaultConfig()
	cfg.EpisodesPerIter = 8
	cfg.Workers = workers
	cfg.NoCurriculum = true
	cfg.MaxHorizon = 1e12
	iat := workload.IATForLoad(0.70, executors)
	src := func(rng *rand.Rand) []*dag.Job { return workload.Poisson(rng, 6, iat) }
	return NewTrainer(agent, cfg, rand.New(rand.NewSource(seed))), src, sim.SparkDefaults(executors)
}

// replayShapeDigest trains 5 iterations at the train-replay shape and hashes
// the parameters and every iteration's statistics.
func replayShapeDigest(workers int) uint64 {
	tr, src, simCfg := replayShapeTrainer(workers, 1)
	d := digest{fnv.New64a()}
	for _, st := range tr.Train(5, src, simCfg, nil) {
		d.add(math.Float64bits(st.MeanReturn), math.Float64bits(st.MeanJCT), math.Float64bits(st.MeanSteps),
			math.Float64bits(st.GradNorm), math.Float64bits(st.Entropy))
	}
	for _, p := range tr.Agent.Params() {
		for _, v := range p.Data {
			d.add(math.Float64bits(v))
		}
	}
	return d.Sum64()
}

func TestGoldenVectors(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden vectors were captured on amd64")
	}
	paramDigest := func(workers int) uint64 {
		d := digest{fnv.New64a()}
		for _, v := range trainedParams(workers, 3, false) {
			d.add(math.Float64bits(v))
		}
		return d.Sum64()
	}
	type golden struct {
		name      string
		got, want uint64
	}
	cases := []golden{
		{"params after 3 iterations, 1 worker", paramDigest(1), goldenParams},
		{"params after 3 iterations, 2 workers", paramDigest(2), goldenParams},
		{"train-replay shape, 5 iterations, 2 workers", replayShapeDigest(2), goldenReplayShape},
		{"sampled rollout", rolloutDigest(false), goldenSampledRollout},
		{"greedy rollout", rolloutDigest(true), goldenGreedyRollout},
	}
	if !testing.Short() { // `make race` keeps the two-worker run, the one with something to race on
		cases = append(cases, golden{"train-replay shape, 5 iterations, 1 worker", replayShapeDigest(1), goldenReplayShape})
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: digest %#x, golden %#x", c.name, c.got, c.want)
		}
	}
}
