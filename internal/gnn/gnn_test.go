package gnn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/nn"
)

// featsFor builds a simple 3-feature matrix (tasks, duration, work) for a
// job, good enough for structural tests.
func featsFor(j *dag.Job) *nn.Tensor {
	f := nn.Zeros(len(j.Stages), 3)
	for i, s := range j.Stages {
		f.Set(i, 0, float64(s.NumTasks)/10)
		f.Set(i, 1, s.TaskDuration)
		f.Set(i, 2, s.Work()/100)
	}
	return f
}

func testGNN(rng *rand.Rand) *GNN {
	return New(Config{FeatDim: 3, EmbedDim: 4, Hidden: []int{8}}, rng)
}

// embedOne returns one graph's node embeddings from the tracked forward: a
// batch of one.
func embedOne(g *GNN, gr *Graph) *nn.Tensor { return g.ForwardBatch(nil, []*Graph{gr}).Nodes }

// summaryLoss sums the squares of everything the tracked forward outputs for
// one graph: column-summed node embeddings, job summary, global summary.
func summaryLoss(g *GNN, gr *Graph) *nn.Tensor {
	b := g.ForwardBatch(nil, []*Graph{gr})
	sq := func(t *nn.Tensor) *nn.Tensor { return nn.Sum(nn.Square(t)) }
	return nn.Add(nn.Add(sq(nn.SumRows(b.Nodes)), sq(b.Jobs)), sq(g.GlobalsBatch(b.Jobs, []int{0}, []int{0}, 1)))
}

func TestForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := testGNN(rng)
	var graphs []*Graph
	sizes := []int{1, 5, 12}
	for i, n := range sizes {
		j := dag.Random(rand.New(rand.NewSource(int64(i))), n, 0.3)
		graphs = append(graphs, NewGraph(j, featsFor(j)))
	}
	b := g.ForwardBatch(nil, graphs)
	if b.Nodes.Rows != 18 || b.Nodes.Cols != 4 || b.Off[0] != 0 || b.Off[1] != 1 || b.Off[2] != 6 {
		t.Fatalf("node emb shape %d×%d, offsets %v", b.Nodes.Rows, b.Nodes.Cols, b.Off)
	}
	if b.Jobs.Rows != 3 || b.Jobs.Cols != 4 {
		t.Fatalf("job emb shape %d×%d", b.Jobs.Rows, b.Jobs.Cols)
	}
	// Two decisions: one sees all three jobs, one only the last.
	if z := g.GlobalsBatch(b.Jobs, []int{0, 1, 2, 2}, []int{0, 0, 0, 1}, 2); z.Rows != 2 || z.Cols != 4 {
		t.Fatalf("global shape %d×%d", z.Rows, z.Cols)
	}
}

// TestEmptyInput: a batch of no graphs is a caller bug (the agent never
// replays a decision that saw no job), not an empty result.
func TestEmptyInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ForwardBatch of no graphs did not panic")
		}
	}()
	testGNN(rand.New(rand.NewSource(1))).ForwardBatch(nil, nil)
}

func TestChildPermutationInvariance(t *testing.T) {
	// Sum aggregation must be invariant to child-list order.
	star := func(children []int) *Graph {
		j := &dag.Job{}
		for i := 0; i < 5; i++ {
			j.Stages = append(j.Stages, &dag.Stage{ID: i, NumTasks: i + 1, TaskDuration: 1, CPUReq: 1})
		}
		for _, c := range children {
			j.AddEdge(0, c)
		}
		return NewGraph(j, featsFor(j))
	}
	g := testGNN(rand.New(rand.NewSource(2)))
	a := embedOne(g, star([]int{1, 2, 3, 4}))
	b := embedOne(g, star([]int{4, 2, 3, 1}))
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > 1e-9 {
			t.Fatal("embedding depends on child order")
		}
	}
}

func TestStructureMatters(t *testing.T) {
	// The same features arranged as a chain vs as independent nodes must
	// embed differently at the root.
	mk := func(chain bool) *dag.Job {
		j := &dag.Job{}
		for i := 0; i < 4; i++ {
			j.Stages = append(j.Stages, &dag.Stage{ID: i, NumTasks: 5, TaskDuration: 2, CPUReq: 1})
		}
		if chain {
			j.AddEdge(0, 1)
			j.AddEdge(1, 2)
			j.AddEdge(2, 3)
		}
		return j
	}
	g := testGNN(rand.New(rand.NewSource(3)))
	chain := embedOne(g, NewGraph(mk(true), featsFor(mk(true))))
	flat := embedOne(g, NewGraph(mk(false), featsFor(mk(false))))
	diff := 0.0
	for c := 0; c < 4; c++ {
		diff += math.Abs(chain.At(0, c) - flat.At(0, c))
	}
	if diff < 1e-6 {
		t.Fatal("chain root embeds identically to isolated node")
	}
}

func TestLeafEmbeddingIsProjection(t *testing.T) {
	// A leaf (no children) keeps its projected features untouched.
	j := &dag.Job{Stages: []*dag.Stage{{ID: 0, NumTasks: 2, TaskDuration: 1, CPUReq: 1}}}
	g := testGNN(rand.New(rand.NewSource(4)))
	feats := featsFor(j)
	e := embedOne(g, NewGraph(j, feats))
	want := g.Prep.Forward(feats)
	for i := range e.Data {
		if math.Abs(e.Data[i]-want.Data[i]) > 1e-12 {
			t.Fatal("leaf embedding differs from projected features")
		}
	}
}

func TestGradientsFlowToAllParams(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := testGNN(rng)
	j := dag.Random(rng, 8, 0.4)
	summaryLoss(g, NewGraph(j, featsFor(j))).Backward(1)
	for i, p := range g.Params() {
		var s float64
		for _, v := range p.Grad {
			s += math.Abs(v)
		}
		if s == 0 {
			t.Fatalf("param %d received zero gradient", i)
		}
	}
}

func TestGNNGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := New(Config{FeatDim: 2, EmbedDim: 3, Hidden: []int{4}}, rng)
	j := dag.Random(rng, 5, 0.5)
	feats := nn.Zeros(5, 2)
	for i := range feats.Data {
		feats.Data[i] = rng.NormFloat64()
	}
	build := func() *nn.Tensor { return summaryLoss(g, NewGraph(j, feats)) }
	out := build()
	out.Backward(1)
	f := func() float64 { return build().Value() }
	// Spot-check a handful of parameters from each MLP.
	for mi, p := range g.Params() {
		for _, i := range []int{0, len(p.Data) / 2} {
			old := p.Grad[i]
			const h = 1e-6
			orig := p.Data[i]
			p.Data[i] = orig + h
			up := f()
			p.Data[i] = orig - h
			down := f()
			p.Data[i] = orig
			want := (up - down) / (2 * h)
			if math.Abs(old-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("param %d elem %d: grad %v want %v", mi, i, old, want)
			}
		}
	}
}

// TestLearnsCriticalPathSmoke is a fast version of the Appendix E
// experiment: a GNN with the two-level aggregation must be able to regress
// each node's critical-path value on small random DAGs.
func TestLearnsCriticalPathSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New(Config{FeatDim: 2, EmbedDim: 8, Hidden: []int{16}}, rng)
	head := nn.NewLinear(8, 1, rng)
	params := append(g.Params(), head.Params()...)
	opt := nn.NewAdam(0.01)

	sample := func(r *rand.Rand) (*Graph, *nn.Tensor) {
		j := dag.Random(r, 3+r.Intn(5), 0.4)
		feats := nn.Zeros(len(j.Stages), 2)
		cp := j.CriticalPath()
		target := nn.Zeros(len(j.Stages), 1)
		for i, s := range j.Stages {
			feats.Set(i, 0, s.Work()/50)
			feats.Set(i, 1, float64(len(s.Children)))
			target.Set(i, 0, cp[i]/50)
		}
		return NewGraph(j, feats), target
	}

	loss := func(r *rand.Rand) float64 {
		gr, target := sample(r)
		return nn.MSE(head.Forward(embedOne(g, gr)), target).Value()
	}
	evalRng := func() *rand.Rand { return rand.New(rand.NewSource(1234)) }
	before := 0.0
	r := evalRng()
	for i := 0; i < 20; i++ {
		before += loss(r)
	}
	for it := 0; it < 150; it++ {
		nn.ZeroGrads(params)
		gr, target := sample(rng)
		nn.MSE(head.Forward(embedOne(g, gr)), target).Backward(1)
		opt.Step(params)
	}
	after := 0.0
	r = evalRng()
	for i := 0; i < 20; i++ {
		after += loss(r)
	}
	if after > before*0.5 {
		t.Fatalf("critical-path loss did not halve: before=%v after=%v", before, after)
	}
}

func TestNaiveMatchesBatched(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	g := testGNN(rng)
	for trial := 0; trial < 10; trial++ {
		j := dag.Random(rand.New(rand.NewSource(int64(trial))), 2+trial, 0.4)
		gr := NewGraph(j, featsFor(j))
		a := embedOne(g, gr)
		b := g.EmbedNodesNaive(gr)
		for i := range a.Data {
			if math.Abs(a.Data[i]-b.Data[i]) > 1e-9 {
				t.Fatalf("trial %d: batched and naive embeddings differ at %d: %v vs %v", trial, i, a.Data[i], b.Data[i])
			}
		}
	}
}
