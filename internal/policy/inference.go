package policy

import (
	"math"
	"math/rand"

	"repro/internal/gnn"
	"repro/internal/nn"
)

// DecideInference is Decide's inference fast path: it runs the same score
// functions over the same inputs — producing bit-identical probabilities,
// consuming the RNG identically, and therefore selecting the identical
// action — but skips the autograd graph entirely: no log-probability or
// entropy tensors are built (Decision.LogProb and Decision.Entropy are nil),
// every MLP forward is fused, and every intermediate — Decision.NodeProbs
// included, which is therefore valid until s.Reset — lives in the caller's
// scratch arena; the call itself allocates nothing. Use it whenever no
// gradient will be taken (evaluation rollouts, serving); the REINFORCE
// trainer keeps using Decide.
func (p *Policy) DecideInference(emb *gnn.Embeddings, req Request, rng *rand.Rand, s *nn.Scratch) Decision {
	if len(req.Cands) == 0 {
		panic("policy: no candidates")
	}
	n := len(req.Cands)

	// Node selection: rows [e_v, y_i, z] for each candidate, scored by Q.
	qIn := p.Q.InDim()
	dz := emb.Global.Cols
	mat := s.AllocTensor(n, qIn)
	for i, c := range req.Cands {
		row := mat.Data[i*qIn : (i+1)*qIn]
		nodes := emb.Nodes[c.JobIdx]
		de := nodes.Cols
		dy := emb.Jobs.Cols
		copy(row[:de], nodes.Data[c.NodeIdx*de:(c.NodeIdx+1)*de])
		copy(row[de:de+dy], emb.Jobs.Data[c.JobIdx*dy:(c.JobIdx+1)*dy])
		copy(row[de+dy:de+dy+dz], emb.Global.Data)
	}
	scores := p.Q.ForwardInference(mat, s) // n×1
	probs := softmaxInference(scores.Data, s)
	choice := sample(probs, rng, req.Greedy)

	// Parallelism limit for the chosen candidate's job.
	chosen := req.Cands[choice]
	minL := req.MinLimit
	if req.MinLimits != nil {
		minL = req.MinLimits[choice]
	}
	if minL < 1 {
		minL = 1
	}
	if minL > p.Cfg.NumLimits {
		minL = p.Cfg.NumLimits
	}
	nL := p.Cfg.NumLimits - minL + 1
	ctx := p.limitContextInference(emb, chosen, s)
	var lscores []float64
	if p.Cfg.NoLimitInput {
		all := p.W.ForwardInference(ctx, s) // 1×NumLimits
		lscores = all.Data[minL-1 : p.Cfg.NumLimits]
	} else {
		// The nL rows [ctx, l/NumLimits] differ only in their last column.
		ls := s.Alloc(nL)
		for i := range ls {
			ls[i] = float64(minL+i) / float64(p.Cfg.NumLimits)
		}
		lscores = p.W.ForwardInferenceSharedPrefix(ctx.Data, ls, s).Data // nL×1
	}
	limit := minL + sample(softmaxInference(lscores, s), rng, req.Greedy)

	// Executor class (multi-resource): rows [y, z, mem] per eligible class,
	// again sharing all but the last column — the tail of the limit context.
	class := -1
	classOK := req.ClassOK
	if req.ClassOKPer != nil {
		classOK = req.ClassOKPer[choice]
	}
	if p.C != nil && len(classOK) > 0 {
		mems := s.Alloc(len(classOK))[:0]
		for ci, ok := range classOK {
			if ok {
				mems = append(mems, req.ClassMem[ci])
			}
		}
		if len(mems) > 0 {
			yz := ctx.Data[len(ctx.Data)-(emb.Jobs.Cols+dz):]
			out := p.C.ForwardInferenceSharedPrefix(yz, mems, s) // len(mems)×1
			pick := sample(softmaxInference(out.Data, s), rng, req.Greedy)
			for ci, ok := range classOK {
				if !ok {
					continue
				}
				if pick == 0 {
					class = ci
					break
				}
				pick--
			}
		}
	}

	return Decision{
		Choice:    choice,
		Limit:     limit,
		Class:     class,
		NodeProbs: probs,
	}
}

// softmaxInference returns exp(log-softmax(scores)) in the scratch arena —
// the probabilities the tracked path derives from its LogSoftmax tensor,
// bit for bit.
func softmaxInference(scores []float64, s *nn.Scratch) []float64 {
	probs := s.Alloc(len(scores))
	nn.LogSoftmaxInto(probs, scores)
	for i, lp := range probs {
		probs[i] = math.Exp(lp)
	}
	return probs
}

// limitContextInference builds the W input prefix for the chosen candidate
// in the scratch arena: the 1×(dy+dz) row [y, z] normally, [e_v, y, z] with
// stage-level limits.
func (p *Policy) limitContextInference(emb *gnn.Embeddings, c Candidate, s *nn.Scratch) *nn.Tensor {
	dy := emb.Jobs.Cols
	dz := emb.Global.Cols
	width := dy + dz
	var eRow []float64
	if p.Cfg.StageLevelLimits {
		nodes := emb.Nodes[c.JobIdx]
		eRow = nodes.Data[c.NodeIdx*nodes.Cols : (c.NodeIdx+1)*nodes.Cols]
		width += nodes.Cols
	}
	ctx := s.AllocTensor(1, width)
	off := copy(ctx.Data, eRow)
	off += copy(ctx.Data[off:], emb.Jobs.Data[c.JobIdx*dy:(c.JobIdx+1)*dy])
	copy(ctx.Data[off:], emb.Global.Data)
	return ctx
}
