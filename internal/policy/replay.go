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
	vals := make([]StepVals, nSteps)

	// Node head: stack every decision's candidate rows [e_v, y_i, z] and run
	// Q once; one softmax segment per decision.
	var nIdx, yIdx, zIdx []int
	start := make([]int, nSteps+1)
	picks := make([]int, nSteps)
	wPick := make([]float64, nSteps)
	wEnt := make([]float64, nSteps)
	for k, st := range steps {
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
	nodeIn := nn.ConcatCols(
		nn.GatherRows(nodes, nIdx),
		nn.GatherRows(jobs, yIdx),
		nn.GatherRows(globals, zIdx),
	)
	nodeLoss, nodeVals := nn.SegmentPickLoss(p.Q.Forward(nodeIn), start, picks, wPick, wEnt)
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
	start := make([]int, nSteps+1)
	picks := make([]int, nSteps)
	wPick := make([]float64, nSteps)
	wEnt := make([]float64, nSteps) // limit head carries no entropy bonus

	// ctxRows gathers the per-step limit context [y, z] (or [e_v, y, z] with
	// stage-level limits), one row per entry of reps (a step index).
	ctxRows := func(reps []int) *nn.Tensor {
		yIdx := make([]int, len(reps))
		zIdx := make([]int, len(reps))
		var eIdx []int
		if p.Cfg.StageLevelLimits {
			eIdx = make([]int, len(reps))
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
		y := nn.GatherRows(jobs, yIdx)
		z := nn.GatherRows(globals, zIdx)
		if eIdx != nil {
			return nn.ConcatCols(nn.GatherRows(nodes, eIdx), y, z)
		}
		return nn.ConcatCols(y, z)
	}

	if p.Cfg.NoLimitInput {
		// One W forward over every step's context; each step's admissible
		// limits are a contiguous element range of its output row.
		reps := make([]int, nSteps)
		var flat []int
		for k := range steps {
			reps[k] = k
			minL, _ := p.limitBounds(&steps[k])
			start[k] = len(flat)
			picks[k] = steps[k].Limit - minL
			wPick[k] = steps[k].WLogp
			for l := minL - 1; l < p.Cfg.NumLimits; l++ {
				flat = append(flat, k*p.Cfg.NumLimits+l)
			}
		}
		start[nSteps] = len(flat)
		scores := nn.GatherElems(p.W.Forward(ctxRows(reps)), flat)
		loss, lv := nn.SegmentPickLoss(scores, start, picks, wPick, wEnt)
		for k := range vals {
			vals[k].LogProb += lv[k].LogProb
		}
		return loss
	}

	// Limit-as-input design: one row per admissible limit per step, the
	// context repeated and the normalised limit value appended as a plain
	// (non-differentiable) column.
	var reps []int
	var lcol []float64
	for k := range steps {
		minL, nL := p.limitBounds(&steps[k])
		start[k] = len(reps)
		picks[k] = steps[k].Limit - minL
		wPick[k] = steps[k].WLogp
		for i := 0; i < nL; i++ {
			reps = append(reps, k)
			lcol = append(lcol, float64(minL+i)/float64(p.Cfg.NumLimits))
		}
	}
	start[nSteps] = len(reps)
	in := nn.ConcatCols(ctxRows(reps), nn.New(len(lcol), 1, lcol))
	loss, lv := nn.SegmentPickLoss(p.W.Forward(in), start, picks, wPick, wEnt)
	for k := range vals {
		vals[k].LogProb += lv[k].LogProb
	}
	return loss
}

// replayClassLoss builds the executor-class head's loss over the steps that
// actually made a class decision, or returns nil when none did.
func (p *Policy) replayClassLoss(jobs, globals *nn.Tensor, classMem []float64, steps []ReplayStep, vals []StepVals) *nn.Tensor {
	var yIdx, zIdx []int
	var memCol []float64
	var start []int
	var picks []int
	var wPick, wEnt []float64
	var stepOf []int
	for k := range steps {
		st := &steps[k]
		if st.ClassOKs == nil {
			continue
		}
		classOK := st.ClassOKs[st.Choice]
		if len(classOK) == 0 {
			continue
		}
		lo := len(yIdx)
		ci := 0
		n := 0
		for id, ok := range classOK {
			if !ok {
				continue
			}
			if id == st.Class {
				ci = n
			}
			chosen := st.Cands[st.Choice]
			yIdx = append(yIdx, st.Gids[chosen.JobIdx])
			zIdx = append(zIdx, k)
			memCol = append(memCol, classMem[id])
			n++
		}
		if n == 0 {
			continue
		}
		start = append(start, lo)
		picks = append(picks, ci)
		wPick = append(wPick, st.WLogp)
		wEnt = append(wEnt, 0)
		stepOf = append(stepOf, k)
	}
	if len(picks) == 0 {
		return nil
	}
	start = append(start, len(yIdx))
	in := nn.ConcatCols(
		nn.GatherRows(jobs, yIdx),
		nn.GatherRows(globals, zIdx),
		nn.New(len(memCol), 1, memCol),
	)
	loss, cv := nn.SegmentPickLoss(p.C.Forward(in), start, picks, wPick, wEnt)
	for i, k := range stepOf {
		vals[k].LogProb += cv[i].LogProb
	}
	return loss
}
