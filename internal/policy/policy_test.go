package policy

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/gnn"
	"repro/internal/nn"
)

// fixture is a GNN + policy over two small random jobs with every node a
// candidate. decide runs the inference path end to end; replay rebuilds one
// decision on the tracked path, as a one-step episode.
type fixture struct {
	g      *gnn.GNN
	p      *Policy
	graphs []*gnn.Graph
	cands  []Candidate
	s      nn.Scratch
}

func setup(cfg Config) *fixture {
	rng := rand.New(rand.NewSource(1))
	f := &fixture{g: gnn.New(gnn.Config{FeatDim: 2, EmbedDim: cfg.EmbedDim, Hidden: []int{8}}, rng), p: New(cfg, rng)}
	for ji := 0; ji < 2; ji++ {
		j := dag.Random(rand.New(rand.NewSource(int64(ji+10))), 4, 0.4)
		feats := nn.Zeros(4, 2)
		for i := range feats.Data {
			feats.Data[i] = rng.NormFloat64()
		}
		f.graphs = append(f.graphs, gnn.NewGraph(j, feats))
		for ni := 0; ni < 4; ni++ {
			f.cands = append(f.cands, Candidate{JobIdx: ji, NodeIdx: ni})
		}
	}
	return f
}

// request floors every candidate's limit at minLimit and, with a class head,
// masks every candidate's classes with classOK.
func (f *fixture) request(minLimit int, classOK []bool) Request {
	req := Request{Cands: f.cands, ClassMem: []float64{0.25, 0.5, 0.75, 1.0}}
	for range f.cands {
		req.MinLimits = append(req.MinLimits, minLimit)
		if classOK != nil {
			req.ClassOKPer = append(req.ClassOKPer, classOK)
		}
	}
	return req
}

func (f *fixture) decide(req Request, rng *rand.Rand) Decision {
	f.s.Reset()
	emb := &gnn.Embeddings{Jobs: f.s.AllocTensor(len(f.graphs), f.g.Cfg.EmbedDim)}
	for i, gr := range f.graphs {
		e := f.g.EmbedNodesInference(gr, &f.s)
		emb.Nodes = append(emb.Nodes, e)
		copy(emb.Jobs.Data[i*e.Cols:], f.g.JobSummaryInference(gr, e, &f.s).Data)
	}
	emb.Global = f.g.GlobalInference(emb.Jobs, &f.s)
	return f.p.DecideInference(emb, req, rng, &f.s)
}

func (f *fixture) replay(req Request, d Decision, wLogp, wEnt float64) (*nn.Tensor, StepVals) {
	b := f.g.ForwardBatch(nil, f.graphs)
	globals := f.g.GlobalsBatch(b.Jobs, []int{0, 1}, []int{0, 0}, 1)
	loss, vals := f.p.ReplayLoss(b.Nodes, b.Off, b.Jobs, globals, req.ClassMem, []ReplayStep{{
		Gids: []int{0, 1}, Cands: req.Cands, MinLimits: req.MinLimits, ClassOKs: req.ClassOKPer,
		Choice: d.Choice, Limit: d.Limit, Class: d.Class, WLogp: wLogp, WEnt: wEnt,
	}})
	return loss, vals[0]
}

// checkReplay requires the one-step replay to rebuild the decision's
// log-probability bit for bit and the entropy of its node distribution.
func (f *fixture) checkReplay(t *testing.T, req Request, d Decision) {
	t.Helper()
	_, v := f.replay(req, d, 1, 1)
	if math.Float64bits(v.LogProb) != math.Float64bits(d.LogProb) {
		t.Fatalf("replayed log-prob %v != sampled-with %v", v.LogProb, d.LogProb)
	}
	var ent float64
	for _, p := range d.NodeProbs {
		ent -= p * math.Log(p)
	}
	if math.Abs(v.Entropy-ent) > 1e-12 {
		t.Fatalf("replayed entropy %v, want %v", v.Entropy, ent)
	}
}

func baseCfg() Config {
	return Config{EmbedDim: 4, Hidden: []int{8}, NumLimits: 10}
}

func TestDecideBasics(t *testing.T) {
	f := setup(baseCfg())
	req := f.request(1, nil)
	d := f.decide(req, rand.New(rand.NewSource(2)))
	if d.Choice < 0 || d.Choice >= len(f.cands) {
		t.Fatalf("choice %d out of range", d.Choice)
	}
	if d.Limit < 1 || d.Limit > 10 {
		t.Fatalf("limit %d out of range", d.Limit)
	}
	if d.Class != -1 {
		t.Fatalf("class head should be disabled, got %d", d.Class)
	}
	if d.LogProb > 0 {
		t.Fatalf("log prob %v > 0", d.LogProb)
	}
	var sum float64
	for _, pr := range d.NodeProbs {
		sum += pr
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("node probs sum to %v", sum)
	}
	f.checkReplay(t, req, d)
}

func TestMinLimitRespected(t *testing.T) {
	f := setup(baseCfg())
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		if d := f.decide(f.request(7, nil), rng); d.Limit < 7 {
			t.Fatalf("limit %d below the floor of 7", d.Limit)
		}
	}
	// A floor beyond NumLimits clamps to the top level, in the replay too.
	req := f.request(99, nil)
	d := f.decide(req, rng)
	if d.Limit != 10 {
		t.Fatalf("clamped limit = %d, want 10", d.Limit)
	}
	f.checkReplay(t, req, d)
}

func TestGreedyDeterministic(t *testing.T) {
	f := setup(baseCfg())
	req := f.request(1, nil)
	req.Greedy = true
	a, b := f.decide(req, nil), f.decide(req, nil)
	if a.Choice != b.Choice || a.Limit != b.Limit {
		t.Fatal("greedy decisions differ across calls")
	}
}

func TestClassHeadMasks(t *testing.T) {
	cfg := baseCfg()
	cfg.NumClasses = 4
	f := setup(cfg)
	rng := rand.New(rand.NewSource(5))
	req := f.request(1, []bool{false, false, true, true})
	for trial := 0; trial < 40; trial++ {
		d := f.decide(req, rng)
		if d.Class != 2 && d.Class != 3 {
			t.Fatalf("masked class %d selected", d.Class)
		}
		f.checkReplay(t, req, d)
	}
}

func TestLogProbGradientFlows(t *testing.T) {
	f := setup(baseCfg())
	req := f.request(1, nil)
	loss, _ := f.replay(req, f.decide(req, rand.New(rand.NewSource(6))), 1, 0)
	loss.Backward(1)
	nonzero := 0
	for _, par := range append(f.g.Params(), f.p.Params()...) {
		for _, v := range par.Grad {
			if v != 0 {
				nonzero++
				break
			}
		}
	}
	if nonzero < 10 {
		t.Fatalf("gradient reached only %d parameter tensors", nonzero)
	}
}

func TestReinforceShiftsProbability(t *testing.T) {
	// Rewarding a fixed choice must increase its selection probability —
	// the core REINFORCE property end to end through GNN and policy.
	f := setup(baseCfg())
	opt := nn.NewAdam(0.01)
	params := append(f.g.Params(), f.p.Params()...)
	rng := rand.New(rand.NewSource(7))
	req := f.request(1, nil)
	target := 3
	before := f.decide(req, rng).NodeProbs[target]
	for it := 0; it < 50; it++ {
		nn.ZeroGrads(params)
		d := f.decide(req, rng)
		reward := -1.0
		if d.Choice == target {
			reward = 1.0
		}
		loss, _ := f.replay(req, d, -reward, 0) // loss = −reward · log π
		loss.Backward(1)
		opt.Step(params)
	}
	if after := f.decide(req, rng).NodeProbs[target]; after <= before {
		t.Fatalf("probability of rewarded action fell: %v → %v", before, after)
	}
}

func TestNoLimitInputVariant(t *testing.T) {
	cfg := baseCfg()
	cfg.NoLimitInput = true
	f := setup(cfg)
	req := f.request(4, nil)
	d := f.decide(req, rand.New(rand.NewSource(8)))
	if d.Limit < 4 || d.Limit > 10 {
		t.Fatalf("limit %d out of masked range", d.Limit)
	}
	// The ablated W must expose one output unit per limit.
	if f.p.W.OutDim() != 10 {
		t.Fatalf("NoLimitInput W out dim = %d, want 10", f.p.W.OutDim())
	}
	f.checkReplay(t, req, d)
}

func TestStageLevelVariant(t *testing.T) {
	cfg := baseCfg()
	cfg.StageLevelLimits = true
	f := setup(cfg)
	req := f.request(1, nil)
	d := f.decide(req, rand.New(rand.NewSource(9)))
	if d.Limit < 1 || d.Limit > 10 {
		t.Fatalf("limit %d out of range", d.Limit)
	}
	if f.p.W.InDim() != 3*4+1 {
		t.Fatalf("stage-level W in dim = %d, want 13", f.p.W.InDim())
	}
	f.checkReplay(t, req, d)
}

func TestParamCountsComparable(t *testing.T) {
	// The paper stresses Decima's model is lightweight (§6.1: 12,736
	// parameters with 32/16 hidden units). Check our default-scale network
	// is in the same ballpark.
	rng := rand.New(rand.NewSource(10))
	g := gnn.New(gnn.Config{FeatDim: 5, EmbedDim: 8, Hidden: []int{32, 16}}, rng)
	p := New(Config{EmbedDim: 8, Hidden: []int{32, 16}, NumLimits: 50}, rng)
	count := 0
	for _, t := range append(g.Params(), p.Params()...) {
		count += len(t.Data)
	}
	if count < 5000 || count > 30000 {
		t.Fatalf("parameter count %d outside the paper's lightweight range", count)
	}
}

func TestEntropyNonNegative(t *testing.T) {
	f := setup(baseCfg())
	req := f.request(1, nil)
	_, v := f.replay(req, f.decide(req, rand.New(rand.NewSource(11))), 0, 1)
	if v.Entropy < -1e-9 {
		t.Fatalf("entropy %v negative", v.Entropy)
	}
	if v.Entropy > math.Log(float64(len(f.cands)))+1e-9 {
		t.Fatalf("entropy %v exceeds log(n)", v.Entropy)
	}
}

func TestSingleCandidate(t *testing.T) {
	f := setup(baseCfg())
	req := Request{Cands: []Candidate{{JobIdx: 0, NodeIdx: 1}}, MinLimits: []int{1}}
	d := f.decide(req, rand.New(rand.NewSource(12)))
	if d.Choice != 0 {
		t.Fatalf("choice = %d with one candidate", d.Choice)
	}
	if math.Abs(d.NodeProbs[0]-1) > 1e-9 {
		t.Fatalf("single candidate prob = %v", d.NodeProbs[0])
	}
}
