package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// rowsTestRows are the row counts the row-gathered layer is checked at: one
// partial chunk, exactly one and two chunks of kernelBlockRows, and several
// chunks with a partial last one.
var rowsTestRows = []int{1, 7, kernelBlockRows, 2 * kernelBlockRows, 2*kernelBlockRows + 45, 700}

// leafOn returns a copy of data as a gradient-taking rows×cols leaf on tp
// (nil: the heap).
func leafOn(tp *Tape, rows, cols int, data []float64) *Tensor {
	t := New(rows, cols, append([]float64(nil), data...))
	if tp != nil {
		t = tp.Zeros(rows, cols)
		copy(t.Data, data)
	}
	t.MarkParam()
	return t
}

// signedZeros overwrites about a fifth of t's entries with +0 or −0.
func signedZeros(t *Tensor, rng *rand.Rand) *Tensor {
	for i := range t.Data {
		switch rng.Intn(10) {
		case 0:
			t.Data[i] = 0
		case 1:
			t.Data[i] = math.Copysign(0, -1)
		}
	}
	return t
}

// indices returns n row indices drawn from [0, rows): with rows ≪ n every
// source row is gathered many times.
func indices(rng *rand.Rand, n, rows int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = rng.Intn(rows)
	}
	return idx
}

// weightedSum is Σ out⊙w, so every output element carries its own gradient.
func weightedSum(out *Tensor, w []float64) *Tensor {
	return Sum(Mul(out, New(out.Rows, out.Cols, w)))
}

// headsInputs is the data of one headsGraph build.
type headsInputs struct {
	nodes, jobs, konst []float64
	nIdx, yIdx, zIdx   []int // the first head's three gathers
	yIdx2, seg         []int // the second head's gather, the globals' segments
	w1, w2             []float64
}

const headsNodes, headsJobs, headsGlobals = 5, 4, 3

func newHeadsInputs(rng *rand.Rand, n int) *headsInputs {
	return &headsInputs{
		nodes: signedZeros(randTensor(rng, headsNodes, 8), rng).Data,
		jobs:  signedZeros(randTensor(rng, headsJobs, 6), rng).Data,
		konst: signedZeros(randTensor(rng, headsNodes, 3), rng).Data,
		nIdx:  indices(rng, n, headsNodes),
		yIdx:  indices(rng, n, headsJobs),
		zIdx:  indices(rng, n, headsGlobals),
		yIdx2: indices(rng, headsNodes, headsJobs),
		seg:   indices(rng, headsJobs, headsGlobals),
		w1:    randTensor(rng, n, 1).Data,
		w2:    randTensor(rng, headsNodes, 1).Data,
	}
}

// headsGraph builds the policy replay's shape on tp: the globals are computed
// from the jobs, so a consumer of the jobs sits inside the globals' subtree
// and the order of the sums into the jobs' gradient depends on where each
// gather stands in the graph. q reads [nodes, jobs, globals] through three
// gathers, w reads [nodes (identity), jobs (gathered), a constant block]. With
// rows the layers read their inputs in place; without, they read the
// GatherRows/ConcatCols chain.
func headsGraph(tp *Tape, rows bool, f, q, w *MLP, in *headsInputs) (loss, nodes, jobs *Tensor) {
	nodes = leafOn(tp, headsNodes, 8, in.nodes)
	jobs = leafOn(tp, headsJobs, 6, in.jobs)
	konst := New(headsNodes, 3, append([]float64(nil), in.konst...)) // no gradient
	globals := SegmentSum(f.Forward(jobs), in.seg, headsGlobals)
	var h1, h2 *Tensor
	if rows {
		h1 = q.ForwardRows(Rows{nodes, in.nIdx}, Rows{jobs, in.yIdx}, Rows{globals, in.zIdx})
		h2 = w.ForwardRows(Rows{T: nodes}, Rows{jobs, in.yIdx2}, Rows{T: konst})
	} else {
		h1 = q.Forward(ConcatCols(GatherRows(nodes, in.nIdx), GatherRows(jobs, in.yIdx), GatherRows(globals, in.zIdx)))
		h2 = w.Forward(ConcatCols(nodes, GatherRows(jobs, in.yIdx2), konst))
	}
	return Add(weightedSum(h1, in.w1), weightedSum(h2, in.w2)), nodes, jobs
}

// TestForwardRowsMatchesChain is the row-gathered layer's equivalence bar:
// the loss, every parameter gradient and every source gradient equal the
// GatherRows/ConcatCols → Forward chain's bit for bit, with repeated
// indices, ±0 entries, an identity block and a constant block, at row counts
// of one and several row chunks, on the heap and on a tape.
func TestForwardRowsMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	f := NewMLP([]int{6, 7, 5}, ActLeakyReLU, rng)
	q := NewMLP([]int{19, 16, 8, 1}, ActLeakyReLU, rng)
	w := NewMLP([]int{17, 16, 1}, ActLeakyReLU, rng)
	var tp Tape
	for _, n := range rowsTestRows {
		in := newHeadsInputs(rng, n)
		for _, onTape := range []bool{false, true} {
			what := fmt.Sprintf("n=%d tape=%v", n, onTape)
			var tape *Tape
			if onTape {
				tp.Reset()
				tape = &tp
			}
			run := func(rows bool) (loss, nodes, jobs *Tensor, nets []*MLP) {
				nets = []*MLP{cloneMLP(f), cloneMLP(q), cloneMLP(w)}
				loss, nodes, jobs = headsGraph(tape, rows, nets[0], nets[1], nets[2], in)
				loss.Backward(1)
				return loss, nodes, jobs, nets
			}
			wantLoss, wantNodes, wantJobs, wantNets := run(false)
			gotLoss, gotNodes, gotJobs, gotNets := run(true)
			bitsEqual(t, what+": loss", gotLoss.Data, wantLoss.Data)
			bitsEqual(t, what+": dnodes", gotNodes.Grad, wantNodes.Grad)
			bitsEqual(t, what+": djobs", gotJobs.Grad, wantJobs.Grad)
			for i := range wantNets {
				for j, p := range wantNets[i].Params() {
					bitsEqual(t, fmt.Sprintf("%s: net %d param %d", what, i, j), gotNets[i].Params()[j].Grad, p.Grad)
				}
			}
		}
	}
}

// levelsInputs is one levelsGraph build's data: a DAG of levels, each a list
// of parents and their children (rows of lower levels or leaves, a child
// often shared by several parents), plus a head reading gathered rows.
type levelsInputs struct {
	feats               []float64
	parents, child, seg [][]int
	head                []int
	w1, w2              []float64
	nodes, featW        int
}

func newLevelsInputs(rng *rand.Rand, nodes, levels int) *levelsInputs {
	in := &levelsInputs{nodes: nodes, featW: 6}
	in.feats = signedZeros(randTensor(rng, nodes, in.featW), rng).Data
	level := make([]int, nodes) // −1: a leaf
	for v := range level {
		level[v] = rng.Intn(levels+2) - 2
		if level[v] < -1 {
			level[v] = -1
		}
	}
	for l := 0; l < levels; l++ {
		var below, par, child, seg []int
		for v, lv := range level {
			if lv < l {
				below = append(below, v)
			}
		}
		for v, lv := range level {
			if lv != l || len(below) == 0 {
				continue
			}
			for c := rng.Intn(3); c >= 0; c-- {
				child = append(child, below[rng.Intn(len(below))])
				seg = append(seg, len(par))
			}
			par = append(par, v)
		}
		if len(par) > 0 {
			in.parents, in.child, in.seg = append(in.parents, par), append(in.child, child), append(in.seg, seg)
		}
	}
	in.head = indices(rng, nodes/2+1, nodes)
	in.w1 = randTensor(rng, nodes, 8).Data
	in.w2 = randTensor(rng, len(in.head), 1).Data
	return in
}

// levelsGraph builds the GNN replay's message passing on tp. inPlace runs
// each level as AddRowsInPlace on one matrix, rows reads the layer inputs
// with ForwardRows; the reference (both false) is the chain
// ScatterRows(e, parents, Add(agg, GatherRows(x, parents))) per level.
func levelsGraph(tp *Tape, inPlace, rows bool, nets []*MLP, in *levelsInputs) (loss, feats *Tensor) {
	prep, fnode, gnode, fjob, head := nets[0], nets[1], nets[2], nets[3], nets[4]
	feats = leafOn(tp, in.nodes, in.featW, in.feats)
	x := prep.Forward(feats)
	e := x
	for l := range in.parents {
		var msgs *Tensor
		if rows {
			msgs = fnode.ForwardRows(Rows{e, in.child[l]})
		} else {
			msgs = fnode.Forward(GatherRows(e, in.child[l]))
		}
		agg := gnode.Forward(SegmentSum(msgs, in.seg[l], len(in.parents[l])))
		if inPlace {
			e = AddRowsInPlace(e, in.parents[l], agg)
		} else {
			e = ScatterRows(e, in.parents[l], Add(agg, GatherRows(x, in.parents[l])))
		}
	}
	var out, h *Tensor
	if rows {
		out = fjob.ForwardRows(Rows{T: feats}, Rows{T: e})
		h = head.ForwardRows(Rows{e, in.head})
	} else {
		out = fjob.Forward(ConcatCols(feats, e))
		h = head.Forward(GatherRows(e, in.head))
	}
	return Add(weightedSum(out, in.w1), weightedSum(h, in.w2)), feats
}

// TestAddRowsInPlaceMatchesChain is the level op's equivalence bar: message
// passing that overwrites one node-embedding matrix level by level gives the
// loss, every parameter gradient and the input features' gradient of the
// per-level GatherRows + Add + ScatterRows chain bit for bit — alone, and
// together with row-gathered layer inputs — on the heap and on a tape.
func TestAddRowsInPlaceMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	nets := []*MLP{
		NewMLP([]int{6, 16, 8}, ActLeakyReLU, rng),  // prep
		NewMLP([]int{8, 16, 8}, ActLeakyReLU, rng),  // fnode
		NewMLP([]int{8, 16, 8}, ActLeakyReLU, rng),  // gnode
		NewMLP([]int{14, 16, 8}, ActLeakyReLU, rng), // fjob
		NewMLP([]int{8, 5, 1}, ActLeakyReLU, rng),   // head
	}
	var tp Tape
	for _, nodes := range []int{1, 12, 900} {
		in := newLevelsInputs(rng, nodes, 4)
		for _, onTape := range []bool{false, true} {
			var tape *Tape
			if onTape {
				tp.Reset()
				tape = &tp
			}
			run := func(inPlace, rows bool) (*Tensor, *Tensor, []*MLP) {
				cl := make([]*MLP, len(nets))
				for i, m := range nets {
					cl[i] = cloneMLP(m)
				}
				loss, feats := levelsGraph(tape, inPlace, rows, cl, in)
				loss.Backward(1)
				return loss, feats, cl
			}
			wantLoss, wantFeats, wantNets := run(false, false)
			for _, rows := range []bool{false, true} {
				what := fmt.Sprintf("nodes=%d tape=%v rows=%v", nodes, onTape, rows)
				gotLoss, gotFeats, gotNets := run(true, rows)
				bitsEqual(t, what+": loss", gotLoss.Data, wantLoss.Data)
				bitsEqual(t, what+": dfeats", gotFeats.Grad, wantFeats.Grad)
				for i := range wantNets {
					for j, p := range wantNets[i].Params() {
						bitsEqual(t, fmt.Sprintf("%s: net %d param %d", what, i, j), gotNets[i].Params()[j].Grad, p.Grad)
					}
				}
			}
		}
	}
}

// TestAddRowsInPlaceGradcheck pins the level op's gradient, repeated indices
// included, to central finite differences.
func TestAddRowsInPlaceGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	e0, d := randTensor(rng, 5, 3), randTensor(rng, 4, 3)
	idx := []int{3, 0, 3, 1}
	e0.MarkParam()
	d.MarkParam()
	// Scale's result is fresh storage whose backward reads no values.
	checkGrads(t, func() *Tensor { return Sum(Square(AddRowsInPlace(Scale(e0, 1.5), idx, d))) }, e0, d)
}

// TestForwardRowsDXSkipsConstants checks dx on inputs whose constant blocks
// sit first, between and last (FJob's feature block, W's limit column, C's
// memory column): the gradient-taking blocks, each computed over its own
// rows of W, equal the chain's bit for bit, and so do W's and b's.
func TestForwardRowsDXSkipsConstants(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	net := NewMLP([]int{13, 8, 1}, ActLeakyReLU, rng)
	for _, n := range rowsTestRows {
		c0, c1, c2 := randTensor(rng, n, 2), randTensor(rng, n, 1), randTensor(rng, n, 3)
		xd, yd, zd := randTensor(rng, n, 3).Data, randTensor(rng, n, 2).Data, randTensor(rng, n, 2).Data
		wts := randTensor(rng, n, 1).Data
		run := func(rows bool) (x, y, z *Tensor, m *MLP) {
			m = cloneMLP(net)
			x, y, z = leafOn(nil, n, 3, xd), leafOn(nil, n, 2, yd), leafOn(nil, n, 2, zd)
			var out *Tensor
			if rows {
				out = m.ForwardRows(Rows{T: c0}, Rows{T: x}, Rows{T: c1}, Rows{T: y}, Rows{T: z}, Rows{T: c2})
			} else {
				out = m.Forward(ConcatCols(c0, x, c1, y, z, c2))
			}
			weightedSum(out, wts).Backward(1)
			return x, y, z, m
		}
		wx, wy, wz, wm := run(false)
		gx, gy, gz, gm := run(true)
		what := fmt.Sprintf("n=%d", n)
		bitsEqual(t, what+": dx", gx.Grad, wx.Grad)
		bitsEqual(t, what+": dy", gy.Grad, wy.Grad)
		bitsEqual(t, what+": dz", gz.Grad, wz.Grad)
		for j, p := range wm.Params() {
			bitsEqual(t, fmt.Sprintf("%s: param %d", what, j), gm.Params()[j].Grad, p.Grad)
		}
	}
}
