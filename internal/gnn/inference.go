package gnn

import "repro/internal/nn"

// This file is the GNN's inference forward: the same level-batched message
// passing as ForwardBatch, one job at a time, with no autograd graph, all
// MLP forwards fused (nn.MLP.ForwardInference), and every intermediate —
// storage and tensor header — owned by a caller-supplied scratch arena.
// Arithmetic order matches the tracked ops exactly, so results are
// bit-identical — the equivalence the training replay and the incremental
// embedding cache in internal/core depend on (see DESIGN.md).
//
// Returned tensors belong to the scratch arena and are valid until the
// caller resets it; callers that cache results across decisions must copy
// the values out.

// gatherRows copies rows idx of a into a scratch tensor (no-grad GatherRows).
func gatherRows(a *nn.Tensor, idx []int, s *nn.Scratch) *nn.Tensor {
	m := a.Cols
	out := s.AllocTensor(len(idx), m)
	for i, r := range idx {
		copy(out.Data[i*m:(i+1)*m], a.Data[r*m:(r+1)*m])
	}
	return out
}

// segmentSum scatter-adds rows of a into numSegments scratch rows, matching
// nn.SegmentSum's accumulation order.
func segmentSum(a *nn.Tensor, seg []int, numSegments int, s *nn.Scratch) *nn.Tensor {
	m := a.Cols
	out := s.AllocTensor(numSegments, m)
	for i, sg := range seg {
		dr := out.Data[sg*m : (sg+1)*m]
		ar := a.Data[i*m : (i+1)*m]
		for j, v := range ar {
			dr[j] += v
		}
	}
	return out
}

// sumRows column-sums a into a 1×m scratch row, matching nn.SumRows.
func sumRows(a *nn.Tensor, s *nn.Scratch) *nn.Tensor {
	m := a.Cols
	out := s.AllocTensor(1, m)
	for i := 0; i < a.Rows; i++ {
		ar := a.Data[i*m : (i+1)*m]
		for j, v := range ar {
			out.Data[j] += v
		}
	}
	return out
}

// EmbedNodesInference computes the same per-node embeddings as a one-graph
// ForwardBatch — bit-identically — on the no-grad fast path. The projected
// features are updated in place: a stage's row is read as x̂_v only at its own
// level, and as a child's embedding only at higher levels, after it is final.
func (g *GNN) EmbedNodesInference(gr *Graph, s *nn.Scratch) *nn.Tensor {
	e := g.Prep.ForwardInference(gr.Feats, s)
	d := e.Cols
	for _, lv := range gr.Levels {
		msgs := g.FNode.ForwardInference(gatherRows(e, lv.ChildIdx, s), s)
		agg := segmentSum(msgs, lv.Seg, len(lv.Parents), s)
		if !g.Cfg.SingleLevel {
			agg = g.GNode.ForwardInference(agg, s)
		}
		// e_v = agg + x̂_v (the tracked path's Add + ScatterRows, fused).
		for pi, v := range lv.Parents {
			dst := e.Data[v*d : (v+1)*d]
			ar := agg.Data[pi*d : (pi+1)*d]
			for j, xv := range dst {
				dst[j] = ar[j] + xv
			}
		}
	}
	return e
}

// JobSummaryInference computes one job's 1×D summary from its features and
// node embeddings, bit-identical to the graph's row of Batch.Jobs.
func (g *GNN) JobSummaryInference(gr *Graph, nodeEmb *nn.Tensor, s *nn.Scratch) *nn.Tensor {
	f, d := gr.Feats.Cols, nodeEmb.Cols
	pair := s.AllocTensor(nodeEmb.Rows, f+d)
	for i := 0; i < nodeEmb.Rows; i++ {
		copy(pair.Data[i*(f+d):i*(f+d)+f], gr.Feats.Data[i*f:(i+1)*f])
		copy(pair.Data[i*(f+d)+f:(i+1)*(f+d)], nodeEmb.Data[i*d:(i+1)*d])
	}
	return g.GJob.ForwardInference(sumRows(g.FJob.ForwardInference(pair, s), s), s)
}

// GlobalInference aggregates the numJobs×D per-job summary matrix into the
// 1×D global summary, bit-identical to the decision's row of GlobalsBatch.
func (g *GNN) GlobalInference(jobs *nn.Tensor, s *nn.Scratch) *nn.Tensor {
	return g.GGlob.ForwardInference(sumRows(g.FGlob.ForwardInference(jobs, s), s), s)
}
