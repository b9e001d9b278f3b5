// Package policy implements Decima's policy network (§5.2): score functions
// over GNN embeddings that select (i) the next stage to schedule via a
// masked softmax over runnable nodes, (ii) the parallelism limit for that
// stage's job, and — in the multi-resource setting of §7.3 — (iii) the
// executor class to draw from.
//
// The limit score function takes the limit value as an *input* (one shared
// function for all limits); the NoLimitInput option ablates this into one
// output unit per limit, and StageLevelLimits switches limits from job
// granularity to per-node granularity — the two alternatives whose slower
// training Fig. 15a demonstrates.
//
// Two paths share the heads' arithmetic bit for bit, and each is the other's
// reference: DecideInference samples one action on the no-grad fast path and
// reports the log-probability it was sampled with; ReplayLoss rebuilds the
// recorded decisions of a whole episode in one tracked forward for the
// REINFORCE backward, and must reproduce those log-probabilities exactly.
package policy

import (
	"math/rand"

	"repro/internal/nn"
)

// Config sizes the policy network.
type Config struct {
	// EmbedDim is the GNN embedding dimensionality.
	EmbedDim int
	// Hidden lists hidden-layer widths of the score MLPs.
	Hidden []int
	// NumLimits is the number of discrete parallelism levels (typically the
	// executor count).
	NumLimits int
	// NumClasses enables the executor-class head when > 1.
	NumClasses int
	// NoLimitInput ablates the limit-as-input design: a separate output per
	// limit level (Fig. 15a, "no limit input" curve).
	NoLimitInput bool
	// StageLevelLimits scores limits per node instead of per job
	// (Fig. 15a, "stage-level granularity" curve).
	StageLevelLimits bool
}

// Policy holds the score networks q (node), w (limit) and c (class).
type Policy struct {
	Cfg Config

	Q *nn.MLP // node score: [e_v, y_i, z] → scalar
	W *nn.MLP // limit score: [y_i, z, l] (or [e_v, y_i, z, l]) → scalar
	C *nn.MLP // class score: [y_i, z, mem] → scalar (multi-resource only)
}

// New builds a policy network.
func New(cfg Config, rng *rand.Rand) *Policy {
	if cfg.NumLimits < 1 {
		panic("policy: NumLimits must be ≥ 1")
	}
	mlp := func(in, out int) *nn.MLP {
		sizes := append([]int{in}, cfg.Hidden...)
		sizes = append(sizes, out)
		return nn.NewMLP(sizes, nn.ActLeakyReLU, rng)
	}
	d := cfg.EmbedDim
	p := &Policy{Cfg: cfg}
	p.Q = mlp(3*d, 1)
	wIn := 2*d + 1
	if cfg.StageLevelLimits {
		wIn = 3*d + 1
	}
	if cfg.NoLimitInput {
		p.W = mlp(wIn-1, cfg.NumLimits)
	} else {
		p.W = mlp(wIn, 1)
	}
	if cfg.NumClasses > 1 {
		p.C = mlp(2*d+1, 1)
	}
	return p
}

// Params returns all trainable tensors in a stable order.
func (p *Policy) Params() []*nn.Tensor {
	ps := append(p.Q.Params(), p.W.Params()...)
	if p.C != nil {
		ps = append(ps, p.C.Params()...)
	}
	return ps
}

// Candidate identifies one schedulable node: job row JobIdx in the
// embeddings and node row NodeIdx within that job's node matrix.
type Candidate struct {
	JobIdx  int
	NodeIdx int
}

// Decision is one sampled (or greedy) action.
type Decision struct {
	// Choice indexes the selected candidate.
	Choice int
	// Limit is the selected parallelism level in 1..NumLimits.
	Limit int
	// Class is the selected executor class, or -1 when the class head is
	// disabled.
	Class int
	// LogProb is log π(a|s) of the full action: the node, limit and class
	// heads' log-softmax values, added in that order — the value ReplayLoss
	// rebuilds bit for bit.
	LogProb float64
	// NodeProbs holds the node-selection probabilities (diagnostics).
	NodeProbs []float64
}

// Request describes one decision's context and masks.
type Request struct {
	// Cands lists schedulable nodes; must be non-empty.
	Cands []Candidate
	// MinLimits gives, per candidate, the lowest admissible parallelism
	// level should that candidate be chosen (the paper enforces limits
	// greater than the job's current allocation so every action makes
	// progress); clamped to [1, NumLimits].
	MinLimits []int
	// ClassOKPer masks, per candidate, the executor classes eligible for
	// that node; nil when classes are disabled.
	ClassOKPer [][]bool
	// ClassMem gives each class's memory size (the class head's input).
	ClassMem []float64
	// Greedy selects argmax instead of sampling.
	Greedy bool
}

// sample draws an index from the distribution, or argmax when greedy.
func sample(probs []float64, rng *rand.Rand, greedy bool) int {
	if greedy {
		best, bestP := 0, probs[0]
		for i, p := range probs {
			if p > bestP {
				best, bestP = i, p
			}
		}
		return best
	}
	r := rng.Float64()
	acc := 0.0
	for i, p := range probs {
		acc += p
		if r <= acc {
			return i
		}
	}
	return len(probs) - 1
}
