package rl

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// benchTrainer builds the BenchmarkTrainIteration configuration: a fixed
// mid-size workload, fixed horizon (no curriculum, so every measured
// iteration does comparable work) and a single worker, so the number is the
// per-iteration compute cost rather than a parallel-speedup measurement
// (BenchmarkParallelRollout covers scaling).
func benchTrainer() (*Trainer, JobSource, sim.Config) {
	agent := smallAgent(1)
	cfg := DefaultConfig()
	cfg.EpisodesPerIter = 8
	cfg.Workers = 1
	cfg.NoCurriculum = true
	cfg.MaxHorizon = 400
	tr := NewTrainer(agent, cfg, rand.New(rand.NewSource(2)))
	return tr, smallSource(4), sim.SparkDefaults(5)
}

// BenchmarkTrainIteration measures one full training iteration — rollout
// collection, advantage pass, episode replay backward (one fused tracked
// forward and one backward per episode), gradient merge and Adam step. The
// "episodes/sec" extra metric lands in BENCH_training.json via
// `make bench-json`.
func BenchmarkTrainIteration(b *testing.B) {
	tr, src, simCfg := benchTrainer()
	var episodes int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Iteration(src, simCfg)
		episodes += tr.Cfg.EpisodesPerIter
	}
	b.ReportMetric(float64(episodes)/b.Elapsed().Seconds(), "episodes/sec")
}
