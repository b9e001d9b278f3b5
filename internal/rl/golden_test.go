package rl

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// Golden vectors captured at the parent of PR 20 (cbdf5df), which deleted
// the per-decision tracked forward/decide and the direct tape: the trained
// parameters and the schedules below must not move, or the deletion changed
// arithmetic. Floating-point contraction differs across architectures, so
// the constants hold on amd64 only.
const (
	goldenParams         = 0x0a0934199a396a1d // 3 rl.Trainer iterations, any worker count
	goldenSampledRollout = 0xeec0692b0df42c8b
	goldenGreedyRollout  = 0x1591e2a7c1e69291
)

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
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"params after 3 iterations, 1 worker", paramDigest(1), goldenParams},
		{"params after 3 iterations, 2 workers", paramDigest(2), goldenParams},
		{"sampled rollout", rolloutDigest(false), goldenSampledRollout},
		{"greedy rollout", rolloutDigest(true), goldenGreedyRollout},
	} {
		if c.got != c.want {
			t.Errorf("%s: digest %#x, golden %#x", c.name, c.got, c.want)
		}
	}
}
