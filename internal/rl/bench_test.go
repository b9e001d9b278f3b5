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
// forward and one backward per episode), gradient merge and Adam step — on
// the small single-worker fixture (reporting "episodes/sec") and at the
// ledger's train-replay shape with its two workers, where the per-worker
// tape arena and the parallel tall-stack kernels engage ("decisions/sec" is
// the ledger's events_per_s; B/op is its rl.alloc_mb_per_iter).
func BenchmarkTrainIteration(b *testing.B) {
	b.Run("small", func(b *testing.B) {
		tr, src, simCfg := benchTrainer()
		benchIterations(b, tr, src, simCfg)
	})
	b.Run("train-replay", func(b *testing.B) {
		tr, src, simCfg := replayShapeTrainer(2, 1)
		tr.Iteration(src, simCfg) // warm the arenas
		benchIterations(b, tr, src, simCfg)
	})
}

func benchIterations(b *testing.B, tr *Trainer, src JobSource, simCfg sim.Config) {
	var episodes int
	var decisions float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := tr.Iteration(src, simCfg)
		episodes += tr.Cfg.EpisodesPerIter
		decisions += st.MeanSteps * float64(tr.Cfg.EpisodesPerIter)
	}
	b.ReportMetric(float64(episodes)/b.Elapsed().Seconds(), "episodes/sec")
	b.ReportMetric(decisions/b.Elapsed().Seconds(), "decisions/sec")
}
