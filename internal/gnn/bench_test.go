package gnn

import (
	"math/rand"
	"testing"

	"repro/internal/dag"
)

// benchGraph builds a 60-node random DAG for forward-pass benchmarks.
func benchGraph() (*GNN, *Graph) {
	rng := rand.New(rand.NewSource(1))
	g := New(Config{FeatDim: 3, EmbedDim: 8, Hidden: []int{16, 8}}, rng)
	j := dag.Random(rng, 60, 0.1)
	return g, NewGraph(j, featsFor(j))
}

// BenchmarkEmbedBatched measures the level-batched tracked forward (a batch
// of one graph, job summary included), and BenchmarkEmbedNaive the per-node
// ablation; the gap is the value of batching message passing by DAG height
// (DESIGN.md ablation).
func BenchmarkEmbedBatched(b *testing.B) {
	g, gr := benchGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		embedOne(g, gr)
	}
}

func BenchmarkEmbedNaive(b *testing.B) {
	g, gr := benchGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.EmbedNodesNaive(gr)
	}
}
