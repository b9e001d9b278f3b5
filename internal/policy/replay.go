package policy

import (
	"repro/internal/nn"
)

// This file is the policy network's batched replay head: the training fast
// path records each rollout decision's context and sampled action, and the
// backward pass rebuilds every decision's log-probability and entropy in one
// tracked forward per episode — one Q/W/C matmul over all decisions' stacked
// rows instead of one per decision — feeding a single REINFORCE loss scalar.
// Per-decision log-probabilities are bit-identical to the ones DecideInference
// sampled the actions with: rows are scored by row-independent arithmetic and
// every softmax stays segmented per decision.

// ReplayStep is one recorded decision, in replay coordinates: Gids maps the
// decision's job indices to rows of the episode's deduplicated graph batch
// (gnn.Batch / the stacked per-graph summary matrix), and Choice/Limit/Class
// pin the sampled action. WLogp and WEnt are the REINFORCE loss weights of
// the step: the loss contribution is WLogp·logπ(a) + WEnt·H.
type ReplayStep struct {
	Gids      []int
	Cands     []Candidate
	MinLimits []int
	ClassOKs  [][]bool
	Choice    int
	Limit     int
	Class     int
	WLogp     float64
	WEnt      float64
}

// StepVals reports one replayed decision's scalar outputs.
type StepVals struct {
	// LogProb is log π(a|s) of the full recorded action.
	LogProb float64
	// Entropy is the node-selection entropy.
	Entropy float64
}

// ReplayLoss scores every recorded decision of an episode against the
// batched embeddings and returns the differentiable REINFORCE loss
//
//	Σ_k WLogp_k·logπ(a_k|s_k) + WEnt_k·H_k
//
// plus each step's (log-prob, entropy) values. nodes/nodeOff/jobs are the
// episode's deduplicated multi-graph embedding (gnn.Batch layout) and
// globals holds one per-decision global summary row. The caller runs
// Backward on the result once per episode.
func (p *Policy) ReplayLoss(nodes *nn.Tensor, nodeOff []int, jobs, globals *nn.Tensor, classMem []float64, steps []ReplayStep) (*nn.Tensor, []StepVals) {
	nSteps := len(steps)
	if nSteps == 0 {
		panic("policy: ReplayLoss with no steps")
	}
	tp := nodes.Tape() // index lists and weights live as long as the tensors
	vals := make([]StepVals, nSteps)

	// Node head: stack every decision's candidate rows [e_v, y_i, z] and run
	// Q once; one softmax segment per decision.
	nCands := 0
	for k := range steps {
		nCands += len(steps[k].Cands)
	}
	nIdx, yIdx, zIdx := tp.Ints(nCands)[:0], tp.Ints(nCands)[:0], tp.Ints(nCands)[:0]
	start, picks := tp.Ints(nSteps+1), tp.Ints(nSteps)
	wPick, wEnt := tp.Floats(nSteps), tp.Floats(nSteps)
	for k := range steps {
		st := &steps[k]
		start[k] = len(nIdx)
		picks[k] = st.Choice
		wPick[k] = st.WLogp
		wEnt[k] = st.WEnt
		for _, c := range st.Cands {
			g := st.Gids[c.JobIdx]
			nIdx = append(nIdx, nodeOff[g]+c.NodeIdx)
			yIdx = append(yIdx, g)
			zIdx = append(zIdx, k)
		}
	}
	start[nSteps] = len(nIdx)
	scores := p.Q.ForwardRows(nn.Rows{T: nodes, Idx: nIdx}, nn.Rows{T: jobs, Idx: yIdx}, nn.Rows{T: globals, Idx: zIdx})
	nodeLoss, nodeVals := nn.SegmentPickLoss(scores, start, picks, wPick, wEnt)
	for k := range steps {
		vals[k] = StepVals{LogProb: nodeVals[k].LogProb, Entropy: nodeVals[k].Entropy}
	}

	loss := nn.Add(nodeLoss, p.replayLimitLoss(nodes, nodeOff, jobs, globals, steps, vals))
	if p.C != nil {
		if cl := p.replayClassLoss(jobs, globals, classMem, steps, vals); cl != nil {
			loss = nn.Add(loss, cl)
		}
	}
	return loss, vals
}

// limitBounds mirrors DecideInference's admissible-limit clamping for one step.
func (p *Policy) limitBounds(st *ReplayStep) (minL, nL int) {
	minL = st.MinLimits[st.Choice]
	if minL < 1 {
		minL = 1
	}
	if minL > p.Cfg.NumLimits {
		minL = p.Cfg.NumLimits
	}
	return minL, p.Cfg.NumLimits - minL + 1
}

// replayLimitLoss builds the parallelism-limit head's loss over all steps,
// folding each step's log-probability of the recorded limit into vals.
func (p *Policy) replayLimitLoss(nodes *nn.Tensor, nodeOff []int, jobs, globals *nn.Tensor, steps []ReplayStep, vals []StepVals) *nn.Tensor {
	nSteps := len(steps)
	tp := nodes.Tape()
	start, picks := tp.Ints(nSteps+1), tp.Ints(nSteps)
	wPick, wEnt := tp.Floats(nSteps), tp.Floats(nSteps)
	clear(wEnt) // limit head carries no entropy bonus
	nRows := 0  // one per admissible limit per step
	for k := range steps {
		st := &steps[k]
		minL, nL := p.limitBounds(st)
		start[k] = nRows
		picks[k] = st.Limit - minL
		wPick[k] = st.WLogp
		nRows += nL
	}
	start[nSteps] = nRows

	// ctxRows names the per-step limit context [y, z] (or [e_v, y, z] with
	// stage-level limits), one row per entry of reps (a step index), with
	// room for one more block.
	ctxRows := func(reps []int) []nn.Rows {
		yIdx, zIdx := tp.Ints(len(reps)), tp.Ints(len(reps))
		var eIdx []int
		if p.Cfg.StageLevelLimits {
			eIdx = tp.Ints(len(reps))
		}
		for i, k := range reps {
			st := &steps[k]
			chosen := st.Cands[st.Choice]
			g := st.Gids[chosen.JobIdx]
			yIdx[i] = g
			zIdx[i] = k
			if eIdx != nil {
				eIdx[i] = nodeOff[g] + chosen.NodeIdx
			}
		}
		ctx := make([]nn.Rows, 0, 4)
		if eIdx != nil {
			ctx = append(ctx, nn.Rows{T: nodes, Idx: eIdx})
		}
		return append(ctx, nn.Rows{T: jobs, Idx: yIdx}, nn.Rows{T: globals, Idx: zIdx})
	}

	var scores *nn.Tensor
	if p.Cfg.NoLimitInput {
		// One W forward over every step's context; each step's admissible
		// limits are a contiguous element range of its output row.
		reps, flat := tp.Ints(nSteps), tp.Ints(nRows)[:0]
		for k := range steps {
			reps[k] = k
			minL, _ := p.limitBounds(&steps[k])
			for l := minL - 1; l < p.Cfg.NumLimits; l++ {
				flat = append(flat, k*p.Cfg.NumLimits+l)
			}
		}
		scores = nn.GatherElems(p.W.ForwardRows(ctxRows(reps)...), flat)
	} else {
		// Limit-as-input design: one row per admissible limit per step, the
		// context repeated and the normalised limit value appended as a plain
		// (non-differentiable) column.
		reps, lcol := tp.Ints(nRows)[:0], tp.Zeros(nRows, 1)
		for k := range steps {
			minL, nL := p.limitBounds(&steps[k])
			for i := 0; i < nL; i++ {
				lcol.Data[len(reps)] = float64(minL+i) / float64(p.Cfg.NumLimits)
				reps = append(reps, k)
			}
		}
		scores = p.W.ForwardRows(append(ctxRows(reps), nn.Rows{T: lcol})...)
	}
	loss, lv := nn.SegmentPickLoss(scores, start, picks, wPick, wEnt)
	for k := range vals {
		vals[k].LogProb += lv[k].LogProb
	}
	return loss
}

// classChoices returns the admissible classes of a step's chosen candidate,
// nil when the step made no class decision.
func classChoices(st *ReplayStep) []bool {
	if st.ClassOKs == nil {
		return nil
	}
	return st.ClassOKs[st.Choice]
}

// replayClassLoss builds the executor-class head's loss over the steps that
// actually made a class decision, or returns nil when none did.
func (p *Policy) replayClassLoss(jobs, globals *nn.Tensor, classMem []float64, steps []ReplayStep, vals []StepVals) *nn.Tensor {
	tp := jobs.Tape()
	nRows, nSegs := 0, 0 // one row per admissible class, one segment per deciding step
	for k := range steps {
		n := 0
		for _, ok := range classChoices(&steps[k]) {
			if ok {
				n++
			}
		}
		if n > 0 {
			nRows += n
			nSegs++
		}
	}
	if nSegs == 0 {
		return nil
	}
	yIdx, zIdx, memCol := tp.Ints(nRows)[:0], tp.Ints(nRows)[:0], tp.Zeros(nRows, 1)
	start, picks, stepOf := tp.Ints(nSegs + 1)[:0], tp.Ints(nSegs)[:0], tp.Ints(nSegs)[:0]
	wPick, wEnt := tp.Floats(nSegs)[:0], tp.Floats(nSegs)
	clear(wEnt)
	for k := range steps {
		st := &steps[k]
		lo := len(yIdx)
		ci := 0
		for id, ok := range classChoices(st) {
			if !ok {
				continue
			}
			if id == st.Class {
				ci = len(yIdx) - lo
			}
			memCol.Data[len(yIdx)] = classMem[id]
			yIdx = append(yIdx, st.Gids[st.Cands[st.Choice].JobIdx])
			zIdx = append(zIdx, k)
		}
		if len(yIdx) == lo {
			continue
		}
		start = append(start, lo)
		picks = append(picks, ci)
		wPick = append(wPick, st.WLogp)
		stepOf = append(stepOf, k)
	}
	start = append(start, len(yIdx))
	scores := p.C.ForwardRows(nn.Rows{T: jobs, Idx: yIdx}, nn.Rows{T: globals, Idx: zIdx}, nn.Rows{T: memCol})
	loss, cv := nn.SegmentPickLoss(scores, start, picks, wPick, wEnt)
	for i, k := range stepOf {
		vals[k].LogProb += cv[i].LogProb
	}
	return loss
}
