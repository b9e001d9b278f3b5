package policy

import (
	"math"
	"math/rand"

	"repro/internal/gnn"
	"repro/internal/nn"
)

// DecideInference scores the candidates and samples (or, greedy, picks) one
// action with no autograd graph: every MLP forward is fused, and every
// intermediate — Decision.NodeProbs included, which is therefore valid until
// s.Reset — lives in the caller's scratch arena; the call itself allocates
// nothing. Every decision takes this path — serving, evaluation and training
// rollouts alike; training takes its gradient later, from ReplayLoss over the
// recorded decisions.
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
	choice, logProb, probs := pick(scores.Data, rng, req.Greedy, s)

	// Parallelism limit for the chosen candidate's job.
	chosen := req.Cands[choice]
	minL := req.MinLimits[choice]
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
	li, limitLogp, _ := pick(lscores, rng, req.Greedy, s)
	limit := minL + li
	logProb += limitLogp

	// Executor class (multi-resource): rows [y, z, mem] per eligible class,
	// again sharing all but the last column — the tail of the limit context.
	class := -1
	if p.C != nil && len(req.ClassOKPer) > 0 {
		classOK := req.ClassOKPer[choice]
		mems := s.Alloc(len(classOK))[:0]
		for ci, ok := range classOK {
			if ok {
				mems = append(mems, req.ClassMem[ci])
			}
		}
		if len(mems) > 0 {
			yz := ctx.Data[len(ctx.Data)-(emb.Jobs.Cols+dz):]
			out := p.C.ForwardInferenceSharedPrefix(yz, mems, s) // len(mems)×1
			nth, classLogp, _ := pick(out.Data, rng, req.Greedy, s)
			logProb += classLogp
			for ci, ok := range classOK {
				if !ok {
					continue
				}
				if nth == 0 {
					class = ci
					break
				}
				nth--
			}
		}
	}

	return Decision{
		Choice:    choice,
		Limit:     limit,
		Class:     class,
		LogProb:   logProb,
		NodeProbs: probs,
	}
}

// pick draws an index from softmax(scores) (argmax when greedy) and returns
// it with its log-probability and the distribution, both in the scratch
// arena. The log-softmax is nn.LogSoftmaxInto — the values ReplayLoss's
// segments recompute — and the probabilities are its exponentials.
func pick(scores []float64, rng *rand.Rand, greedy bool, s *nn.Scratch) (idx int, logp float64, probs []float64) {
	lp := s.Alloc(len(scores))
	nn.LogSoftmaxInto(lp, scores)
	probs = s.Alloc(len(scores))
	for i, l := range lp {
		probs[i] = math.Exp(l)
	}
	idx = sample(probs, rng, greedy)
	return idx, lp[idx], probs
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
