// Batched episode-replay kernels: the few fat differentiable operations the
// training fast path needs beyond the generic ops in ops.go. A replayed
// episode stacks every decision's rows into a handful of large matrices (one
// matmul per network layer per episode instead of per decision), so the
// per-decision softmax/pick/entropy bookkeeping has to become segmented:
// each segment of a stacked score column is one decision's distribution.
//
// Per-segment log-softmax is LogSoftmaxInto — the kernel the inference decide
// path samples from — so a replayed log-probability is bit-identical to the
// one its action was sampled with.
package nn

import (
	"fmt"
	"math"
)

// SegVals reports one segment's (one decision's) scalar outputs of
// SegmentPickLoss: the log-probability of the picked element and the
// distribution entropy.
type SegVals struct {
	LogProb float64
	Entropy float64
}

// SegmentPickLoss treats each segment seg[s] = scores[start[s]:start[s+1]]
// of a stacked n×1 score column as an independent categorical distribution
// and returns the 1×1 scalar
//
//	Σ_s wPick[s]·logSoftmax(seg_s)[pick[s]] + wEnt[s]·H(seg_s)
//
// together with each segment's (log-prob, entropy) pair. start must hold
// len(wPick)+1 ascending offsets covering scores exactly. It is one node with
// a hand-written backward:
//
//	d/dx_j [logp_c] = δ_{jc} − p_j
//	d/dx_j [H]      = −p_j·(logp_j + H)
//
// The REINFORCE weights are folded in here rather than materialised as Scale
// nodes.
func SegmentPickLoss(scores *Tensor, start []int, pick []int, wPick, wEnt []float64) (*Tensor, []SegVals) {
	nSeg := len(wPick)
	if scores.Cols != 1 {
		panic(fmt.Sprintf("nn: SegmentPickLoss wants a column vector, got %d×%d", scores.Rows, scores.Cols))
	}
	if len(start) != nSeg+1 || len(pick) != nSeg || len(wEnt) != nSeg {
		panic("nn: SegmentPickLoss slice length mismatch")
	}
	if start[0] != 0 || start[nSeg] != scores.Rows {
		panic("nn: SegmentPickLoss segments do not cover the scores")
	}
	lp := scores.tape.alloc(scores.Rows) // retained for the backward closure
	vals := make([]SegVals, nSeg)
	loss := 0.0
	for s := 0; s < nSeg; s++ {
		lo, hi := start[s], start[s+1]
		if hi <= lo {
			panic("nn: SegmentPickLoss empty segment")
		}
		seg := scores.Data[lo:hi]
		LogSoftmaxInto(lp[lo:hi], seg)
		// H = −Σ p·logp, accumulated in index order.
		ent := 0.0
		for _, l := range lp[lo:hi] {
			ent += math.Exp(l) * l
		}
		ent = -ent
		v := SegVals{LogProb: lp[lo+pick[s]], Entropy: ent}
		vals[s] = v
		loss += wPick[s]*v.LogProb + wEnt[s]*v.Entropy
	}
	var out *Tensor
	back := func() {
		if !scores.requiresGrad {
			return
		}
		scores.ensureGrad()
		g := out.Grad[0]
		for s := 0; s < nSeg; s++ {
			lo, hi := start[s], start[s+1]
			wp, we := wPick[s], wEnt[s]
			h := vals[s].Entropy
			for j := lo; j < hi; j++ {
				p := math.Exp(lp[j])
				d := -wp * p
				if j == lo+pick[s] {
					d += wp
				}
				if we != 0 {
					d -= we * p * (lp[j] + h)
				}
				scores.Grad[j] += g * d
			}
		}
	}
	data := scores.tape.alloc(1)
	data[0] = loss
	out = newResult(scores.tape, 1, 1, data, back, scores)
	return out, vals
}

// GatherElems selects arbitrary flat elements of a as an n×1 column.
// Indices may repeat; gradients scatter-add back. The replayed limit head
// uses it to pull each decision's admissible limit scores out of one stacked
// W forward.
func GatherElems(a *Tensor, idx []int) *Tensor {
	data := a.tape.alloc(len(idx))
	for i, k := range idx {
		data[i] = a.Data[k]
	}
	var out *Tensor
	back := func() {
		if !a.requiresGrad {
			return
		}
		a.ensureGrad()
		for i, k := range idx {
			a.Grad[k] += out.Grad[i]
		}
	}
	out = newResult(a.tape, len(idx), 1, data, back, a)
	return out
}
