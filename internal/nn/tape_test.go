package nn

import (
	"math/rand"
	"testing"
)

// handBackRows and handBackLevels shape TestBackwardHandsBackGradients' graph.
const (
	handBackRows   = 512
	handBackLevels = 4
)

// handBackInputs is the data of one handBackGraph build: the 24-wide
// features, the 23 columns every later round reuses, and each round's child
// edges (gather rows) and their parents (segments).
type handBackInputs struct {
	feats, extra []float64
	child, par   [handBackLevels][]int
}

func newHandBackInputs(rng *rand.Rand) *handBackInputs {
	in := &handBackInputs{
		feats: randTensor(rng, handBackRows, 24).Data,
		extra: randTensor(rng, handBackRows, 23).Data,
	}
	for l := range in.child {
		in.child[l] = make([]int, handBackRows)
		in.par[l] = make([]int, handBackRows)
		for i := range in.child[l] {
			in.child[l][i] = rng.Intn(handBackRows)
			in.par[l][i] = rng.Intn(handBackRows)
		}
	}
	return in
}

// handBackGraph builds a message-passing graph shaped like the GNN replay's
// on tp (nil: the heap) and returns its scalar loss and its two inputs, both
// taking gradients. Each round runs the 24→16→8→1 MLP over all rows, gathers
// the scores along child edges, sums them into their parents and
// concatenates the sums with the 23 extra columns into the next round's
// input; the loss sums the last round's squared scores.
func handBackGraph(tp *Tape, m *MLP, in *handBackInputs) (loss, feats, extra *Tensor) {
	input := func(data []float64, cols int) *Tensor {
		t := New(handBackRows, cols, append([]float64(nil), data...))
		if tp != nil {
			t = tp.Zeros(handBackRows, cols)
			copy(t.Data, data)
		}
		t.MarkParam()
		return t
	}
	feats, extra = input(in.feats, 24), input(in.extra, 23)
	x := feats
	var y *Tensor
	for l := 0; l < handBackLevels; l++ {
		y = m.Forward(x)
		msg := SegmentSum(GatherRows(y, in.child[l]), in.par[l], handBackRows)
		x = ConcatCols(msg, extra)
	}
	return Sum(Mul(y, y)), feats, extra
}

// intermediates returns the op results root's Backward visits, root excluded.
func intermediates(root *Tensor) []*Tensor {
	var out []*Tensor
	for _, n := range topoSort(root, &walkScratch{}) {
		if n != root && n.backFn != nil {
			out = append(out, n)
		}
	}
	return out
}

// parentHandBackCap is the tape capacity, in float64s, that the graph below
// took when every gradient stayed on the tape until Reset (measured before
// Backward handed gradients back).
const parentHandBackCap = 313565

// TestBackwardHandsBackGradients pins Backward's gradient hand-back: a tape
// build and a heap build of the same graph give bit-identical parameter and
// input gradients; afterwards every intermediate tape result has handed its
// gradient back while the root keeps its own; and a rebuild on the reset
// tape reuses the handed-back buffers, so the tape holds its values plus a
// gradient frontier rather than a gradient for every value. Heap graphs keep
// every gradient.
func TestBackwardHandsBackGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	m := NewMLP([]int{24, 16, 8, 1}, ActLeakyReLU, rng)
	in := newHandBackInputs(rng)

	heapNet := cloneMLP(m)
	heapLoss, heapFeats, heapExtra := handBackGraph(nil, heapNet, in)
	heapMids := intermediates(heapLoss)
	heapLoss.Backward(1)
	for _, n := range heapMids {
		if n.Grad == nil {
			t.Fatalf("a %d×%d heap intermediate lost its gradient", n.Rows, n.Cols)
		}
	}

	var tp Tape
	for pass := 0; pass < 2; pass++ {
		tp.Reset()
		net := cloneMLP(m)
		loss, feats, extra := handBackGraph(&tp, net, in)
		mids := intermediates(loss)
		loss.Backward(1)
		bitsEqual(t, "loss", loss.Data, heapLoss.Data)
		bitsEqual(t, "dfeats", feats.Grad, heapFeats.Grad)
		bitsEqual(t, "dextra", extra.Grad, heapExtra.Grad)
		for i, p := range net.Params() {
			bitsEqual(t, "dparam", p.Grad, heapNet.Params()[i].Grad)
		}
		if len(loss.Grad) != 1 || loss.Grad[0] != 1 {
			t.Fatalf("pass %d: root gradient %v, want [1]", pass, loss.Grad)
		}
		for _, n := range mids {
			if n.Grad != nil {
				t.Fatalf("pass %d: a %d×%d intermediate kept its gradient after Backward", pass, n.Rows, n.Cols)
			}
		}
	}
	t.Logf("tape capacity %d floats", tp.Cap())
	if 4*tp.Cap() > 3*parentHandBackCap {
		t.Fatalf("tape capacity %d floats, want <= 75%% of the %d it took without hand-back", tp.Cap(), parentHandBackCap)
	}
}
