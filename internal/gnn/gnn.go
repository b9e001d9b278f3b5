// Package gnn implements Decima's graph neural network (§5.1): a scalable
// embedding of job DAGs into per-node, per-job and global vectors, built
// from a small set of reusable non-linear transformations.
//
// Per-node embeddings follow Eq. (1):
//
//	e_v = g( Σ_{u ∈ children(v)} f(e_u) ) + x̂_v
//
// where x̂_v is the node's raw feature vector projected into embedding
// space, and f, g are small MLPs shared across all nodes and message
// passing steps. The two-level non-linearity (f AND g) is what lets the
// network express max-like aggregations such as a DAG's critical path
// (Appendix E); the SingleLevel option ablates g for the Fig. 19
// comparison.
//
// Per-job summaries aggregate (x̂_v, e_v) over each DAG through a second
// pair of transforms, and a global summary aggregates the per-job
// summaries through a third pair — six transformations in total, plus the
// feature projection.
//
// The forward pass batches nodes level by level (children before parents,
// grouped by height), so cost scales with DAG depth rather than node count.
//
// Two forwards share that arithmetic bit for bit, and each is the other's
// reference: the inference forward (EmbedNodesInference, JobSummaryInference,
// GlobalInference — fused no-grad kernels over a scratch arena, one job at a
// time, every decision) and the tracked replay forward (ForwardBatch and
// GlobalsBatch — autograd, many graphs in one pass, one graph being the
// degenerate batch). Which one runs follows from whether a gradient is being
// taken; there is no option. They stay separate code because the inference
// side's in-place level updates and arena-owned tensors are exactly what a
// tape cannot share. EmbedNodesNaive is the unbatched reference of the level
// batching itself.
package gnn

import (
	"math/rand"

	"repro/internal/dag"
	"repro/internal/nn"
)

// Graph is the GNN's input view of one job DAG: the per-decision feature
// matrix plus the job's static level plan (adjacency, heights and the
// per-height gather indices of the message passing), which is derived once
// per dag.Job and shared by every Graph of that job.
type Graph struct {
	// Feats is the n×F matrix of raw node features.
	Feats *nn.Tensor
	// LevelPlan supplies Children, Heights and Levels (dag.Job.Levels).
	*dag.LevelPlan
}

// NewGraph assembles a Graph for a job from a prebuilt feature matrix.
func NewGraph(j *dag.Job, feats *nn.Tensor) *Graph {
	return &Graph{Feats: feats, LevelPlan: j.Levels()}
}

// Config sizes the network.
type Config struct {
	// FeatDim is the raw node feature dimensionality.
	FeatDim int
	// EmbedDim is the embedding dimensionality (the paper uses e.g. R¹⁶;
	// 8 keeps single-core training fast).
	EmbedDim int
	// Hidden lists the hidden-layer widths of every transformation MLP
	// (§6.1: two hidden layers of 32 and 16 units).
	Hidden []int
	// SingleLevel ablates the outer non-linearity g, reducing Eq. (1) to
	// e_v = Σ f(e_u) + x̂_v (the weak baseline of Appendix E).
	SingleLevel bool
}

// GNN holds the seven learned transformations.
type GNN struct {
	Cfg Config

	Prep  *nn.MLP // feature projection F → D
	FNode *nn.MLP // message transform D → D
	GNode *nn.MLP // aggregation transform D → D
	FJob  *nn.MLP // per-job message transform 2D → D
	GJob  *nn.MLP // per-job aggregation D → D
	FGlob *nn.MLP // global message transform D → D
	GGlob *nn.MLP // global aggregation D → D
}

// New builds a GNN with Xavier-initialised weights.
func New(cfg Config, rng *rand.Rand) *GNN {
	mlp := func(in, out int) *nn.MLP {
		sizes := append([]int{in}, cfg.Hidden...)
		sizes = append(sizes, out)
		return nn.NewMLP(sizes, nn.ActLeakyReLU, rng)
	}
	d := cfg.EmbedDim
	return &GNN{
		Cfg:   cfg,
		Prep:  mlp(cfg.FeatDim, d),
		FNode: mlp(d, d),
		GNode: mlp(d, d),
		FJob:  mlp(cfg.FeatDim+d, d),
		GJob:  mlp(d, d),
		FGlob: mlp(d, d),
		GGlob: mlp(d, d),
	}
}

// Params returns all trainable tensors in a stable order.
func (g *GNN) Params() []*nn.Tensor {
	var ps []*nn.Tensor
	for _, m := range []*nn.MLP{g.Prep, g.FNode, g.GNode, g.FJob, g.GJob, g.FGlob, g.GGlob} {
		ps = append(ps, m.Params()...)
	}
	return ps
}

// Embeddings is one decision's view of the cluster, the policy network's
// input: one node-embedding matrix per job, a per-job summary matrix, and
// the global summary vector.
type Embeddings struct {
	// Nodes[i] is job i's n_i×D node embedding matrix.
	Nodes []*nn.Tensor
	// Jobs is the numJobs×D per-job summary matrix.
	Jobs *nn.Tensor
	// Global is the 1×D cluster-level summary.
	Global *nn.Tensor
}

// EmbedNodesNaive computes the same per-node embeddings as a one-graph
// ForwardBatch but node by node, without level batching. It exists as a
// correctness cross-check and as the baseline for the level-batching
// ablation benchmark (see DESIGN.md at the repository root, which covers
// level batching and the two forwards).
func (g *GNN) EmbedNodesNaive(gr *Graph) *nn.Tensor {
	x := g.Prep.Forward(gr.Feats)
	n := x.Rows
	// Process nodes in increasing height so children are done first.
	order := make([]int, 0, n)
	maxH := 0
	for _, h := range gr.Heights {
		if h > maxH {
			maxH = h
		}
	}
	for h := 0; h <= maxH; h++ {
		for v, hv := range gr.Heights {
			if hv == h {
				order = append(order, v)
			}
		}
	}
	e := x
	for _, v := range order {
		if len(gr.Children[v]) == 0 {
			continue
		}
		msgs := g.FNode.Forward(nn.GatherRows(e, gr.Children[v]))
		agg := nn.SumRows(msgs)
		if !g.Cfg.SingleLevel {
			agg = g.GNode.Forward(agg)
		}
		row := nn.Add(agg, nn.GatherRows(x, []int{v}))
		e = nn.ScatterRows(e, []int{v}, row)
	}
	return e
}
