package gnn

import (
	"repro/internal/dag"
	"repro/internal/nn"
)

// This file is the GNN's tracked (differentiable) forward, built for the
// training replay: rollouts run on the inference forward with no autograd
// graph, and the replay stacks every distinct job-DAG observation of an
// episode into a single multi-graph message-passing pass, so each f/g
// transformation runs once per *level across all graphs* instead of once per
// level per job per decision.
//
// Values are bit-identical to embedding each graph on its own — as a batch
// of one or through EmbedNodesInference: message passing only ever flows
// inside one graph, a node's row is computed by row-independent MLP
// arithmetic, and each segment-sum accumulates a node's children in the same
// order as the per-graph pass — batching changes which rows share a matmul
// call, never the arithmetic a row sees.

// Batch is the stacked embedding of several graphs, owned by the tape it was
// built on.
type Batch struct {
	// Nodes is the totalNodes×D stacked node-embedding matrix; graph g's
	// rows are Nodes[Off[g] : Off[g]+len(g.Heights)].
	Nodes *nn.Tensor
	// Off holds each graph's first row in Nodes.
	Off []int
	// Jobs is the nGraphs×D per-graph summary matrix (one y_i row per
	// graph, in input order).
	Jobs *nn.Tensor
}

// ForwardBatch embeds all graphs in one level-batched tracked pass,
// producing node embeddings and per-graph summaries bit-identical to
// embedding each graph separately. Every tensor and index list of the pass
// is drawn from tp and lives until its next Reset; a nil tp is the heap.
func (g *GNN) ForwardBatch(tp *nn.Tape, graphs []*Graph) *Batch {
	if len(graphs) == 0 {
		panic("gnn: ForwardBatch of no graphs")
	}
	off := tp.Ints(len(graphs))
	total, maxH := 0, 0
	for i, gr := range graphs {
		off[i] = total
		total += len(gr.Heights)
		if len(gr.Levels) > maxH {
			maxH = len(gr.Levels)
		}
	}
	f := graphs[0].Feats.Cols
	allFeats := tp.Zeros(total, f)
	graphSeg := tp.Ints(total)
	for gi, gr := range graphs {
		copy(allFeats.Data[off[gi]*f:], gr.Feats.Data)
		for r := range gr.Heights {
			graphSeg[off[gi]+r] = gi
		}
	}
	x := g.Prep.Forward(allFeats) // total×D projected features
	e := x
	for h := 0; h < maxH; h++ {
		// Stack this height's level of every graph that reaches it, in graph
		// order and stacked row coordinates.
		nPar, nChild := 0, 0
		for _, gr := range graphs {
			if h < len(gr.Levels) {
				nPar += len(gr.Levels[h].Parents)
				nChild += len(gr.Levels[h].ChildIdx)
			}
		}
		lv := dag.Level{Parents: tp.Ints(nPar)[:0], ChildIdx: tp.Ints(nChild)[:0], Seg: tp.Ints(nChild)[:0]}
		for gi, gr := range graphs {
			if h >= len(gr.Levels) {
				continue
			}
			base, pbase := off[gi], len(lv.Parents)
			for _, v := range gr.Levels[h].Parents {
				lv.Parents = append(lv.Parents, base+v)
			}
			for i, c := range gr.Levels[h].ChildIdx {
				lv.ChildIdx = append(lv.ChildIdx, base+c)
				lv.Seg = append(lv.Seg, pbase+gr.Levels[h].Seg[i])
			}
		}
		// Eq. (1): the level's parents aggregate their (already final)
		// children's embeddings.
		msgs := g.FNode.Forward(nn.GatherRows(e, lv.ChildIdx))
		agg := nn.SegmentSum(msgs, lv.Seg, len(lv.Parents))
		if !g.Cfg.SingleLevel {
			agg = g.GNode.Forward(agg)
		}
		rows := nn.Add(agg, nn.GatherRows(x, lv.Parents))
		e = nn.ScatterRows(e, lv.Parents, rows)
	}
	// Per-graph summaries: one FJob pass over every (x_v, e_v) pair, summed
	// per graph (same row order as the per-graph SumRows), one GJob pass
	// over the stacked per-graph aggregates.
	pair := nn.ConcatCols(allFeats, e)
	sums := nn.SegmentSum(g.FJob.Forward(pair), graphSeg, len(graphs))
	return &Batch{Nodes: e, Off: off, Jobs: g.GJob.Forward(sums)}
}

// GlobalsBatch computes one global summary row per decision from the
// batched per-graph summaries: flat lists, for every decision in turn, the
// Jobs-row index of each job present in that decision's state (in job
// order), and seg maps each entry to its decision. The result row k is
// bit-identical to GlobalInference over decision k's per-job matrix: FGlob
// is row-independent (computed once per distinct job row instead of once
// per decision) and the per-decision segment sum adds rows in job order.
func (g *GNN) GlobalsBatch(jobs *nn.Tensor, flat, seg []int, nDecisions int) *nn.Tensor {
	fg := g.FGlob.Forward(jobs)
	sums := nn.SegmentSum(nn.GatherRows(fg, flat), seg, nDecisions)
	return g.GGlob.Forward(sums)
}
