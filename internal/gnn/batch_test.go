package gnn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/nn"
)

// sameBits fails unless a and b hold identical float64s.
func sameBits(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d values", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s differs at %d: %v vs %v", what, i, a[i], b[i])
		}
	}
}

// TestForwardBatchBitIdentical is the two forwards' equivalence bar, on
// randomized DAG batches with and without the outer non-linearity: N graphs
// embedded in one tracked batch == each graph as a tracked batch of one ==
// the inference forward over a scratch arena, node embeddings, job summaries
// and the global summary alike — bit for bit, the contract the training
// replay and the core embedding cache depend on.
func TestForwardBatchBitIdentical(t *testing.T) {
	var s nn.Scratch
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		g := New(Config{FeatDim: 3, EmbedDim: 4, Hidden: []int{8, 4}, SingleLevel: trial%4 == 3}, rng)
		var graphs []*Graph
		var all, seg []int
		for i := 0; i < 1+rng.Intn(6); i++ {
			j := dag.Random(rng, 1+rng.Intn(14), 0.35)
			graphs = append(graphs, NewGraph(j, featsFor(j)))
			all, seg = append(all, i), append(seg, 0)
		}
		batch := g.ForwardBatch(nil, graphs)
		s.Reset()
		for i, gr := range graphs {
			what := fmt.Sprintf("trial %d graph %d", trial, i)
			d := batch.Nodes.Cols
			nodes := batch.Nodes.Data[batch.Off[i]*d : (batch.Off[i]+len(gr.Heights))*d]
			one := g.ForwardBatch(nil, []*Graph{gr})
			sameBits(t, what+": nodes, batch of N vs batch of one", nodes, one.Nodes.Data)
			sameBits(t, what+": summary, batch of N vs batch of one", batch.Jobs.Data[i*d:(i+1)*d], one.Jobs.Data)
			fast := g.EmbedNodesInference(gr, &s)
			sameBits(t, what+": nodes, tracked vs inference", nodes, fast.Data)
			sameBits(t, what+": summary, tracked vs inference", one.Jobs.Data, g.JobSummaryInference(gr, fast, &s).Data)
		}
		sameBits(t, fmt.Sprintf("trial %d: global, tracked vs inference", trial),
			g.GlobalsBatch(batch.Jobs, all, seg, 1).Data, g.GlobalInference(batch.Jobs, &s).Data)
	}
}

// TestGlobalsBatchBitIdentical checks the batched per-decision global
// summaries against GlobalInference over each decision's job subset.
func TestGlobalsBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := testGNN(rng)
	var graphs []*Graph
	for i := 0; i < 5; i++ {
		j := dag.Random(rand.New(rand.NewSource(int64(i))), 2+rng.Intn(8), 0.3)
		graphs = append(graphs, NewGraph(j, featsFor(j)))
	}
	batch := g.ForwardBatch(nil, graphs)

	// Three "decisions" observing different job subsets (in job order).
	decisions := [][]int{{0, 1, 2, 3, 4}, {1, 3}, {0, 2, 4}}
	var flat, seg []int
	for k, d := range decisions {
		for _, gi := range d {
			flat = append(flat, gi)
			seg = append(seg, k)
		}
	}
	globals := g.GlobalsBatch(batch.Jobs, flat, seg, len(decisions))
	d := g.Cfg.EmbedDim
	var s nn.Scratch
	for k, dec := range decisions {
		jobs := nn.Zeros(len(dec), d)
		for i, gi := range dec {
			copy(jobs.Data[i*d:(i+1)*d], batch.Jobs.Data[gi*d:(gi+1)*d])
		}
		s.Reset()
		want := g.GlobalInference(jobs, &s)
		for c := 0; c < d; c++ {
			if math.Float64bits(globals.At(k, c)) != math.Float64bits(want.Data[c]) {
				t.Fatalf("decision %d global col %d: %v != %v", k, c, globals.At(k, c), want.Data[c])
			}
		}
	}
}
