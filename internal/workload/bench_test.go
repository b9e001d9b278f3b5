package workload

import (
	"math/rand"
	"testing"

	"repro/internal/dag"
)

// Sinks keep the compiler from discarding the benchmarked calls.
var (
	sinkJobs []*dag.Job
	sinkIAT  float64
)

// BenchmarkGenerate times the generators the ledger's clients and the
// trainer call per episode: a 20-job batch (session-stream's wave), 6
// Poisson jobs (train-replay's sequence) and IATForLoad (called once per
// sequence source).
func BenchmarkGenerate(b *testing.B) {
	b.Run("batch20", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkJobs = Batch(rng, 20)
		}
	})
	b.Run("poisson6", func(b *testing.B) {
		rng := rand.New(rand.NewSource(2))
		iat := IATForLoad(0.7, 15)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkJobs = Poisson(rng, 6, iat)
		}
	})
	b.Run("iat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkIAT = IATForLoad(0.7, 50)
		}
	})
}
