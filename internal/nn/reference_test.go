package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The three-op layer: until PR 21 MLP.Forward built MatMul → AddRow →
// activation as three autograd nodes per layer. The fused node
// (Linear.forward) replaced the chain in production; the chain lives on here
// as its reference, values and gradients, bit for bit.

// AddRow adds a 1×m row vector b to every row of a (n×m).
func AddRow(a, b *Tensor) *Tensor {
	if b.Rows != 1 || a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: AddRow shape mismatch %d×%d + %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	m := a.Cols
	data := make([]float64, len(a.Data))
	for i := 0; i < a.Rows; i++ {
		ar := a.Data[i*m : (i+1)*m]
		or := data[i*m : (i+1)*m]
		for j, v := range ar {
			or[j] = v + b.Data[j]
		}
	}
	var out *Tensor
	back := func() {
		if a.requiresGrad {
			accumulate(a, out.Grad)
		}
		if b.requiresGrad {
			b.ensureGrad()
			for i := 0; i < a.Rows; i++ {
				gr := out.Grad[i*m : (i+1)*m]
				for j, g := range gr {
					b.Grad[j] += g
				}
			}
		}
	}
	out = newResult(nil, a.Rows, a.Cols, data, back, a, b)
	return out
}

// LeakyReLU applies max(x, alpha·x) element-wise.
func LeakyReLU(a *Tensor, alpha float64) *Tensor {
	data := make([]float64, len(a.Data))
	for i, v := range a.Data {
		if v >= 0 {
			data[i] = v
		} else {
			data[i] = alpha * v
		}
	}
	var out *Tensor
	back := func() {
		if !a.requiresGrad {
			return
		}
		a.ensureGrad()
		for i, g := range out.Grad {
			if a.Data[i] >= 0 {
				a.Grad[i] += g
			} else {
				a.Grad[i] += g * alpha
			}
		}
	}
	out = newResult(nil, a.Rows, a.Cols, data, back, a)
	return out
}

// Tanh applies the hyperbolic tangent element-wise.
func Tanh(a *Tensor) *Tensor {
	data := make([]float64, len(a.Data))
	for i, v := range a.Data {
		data[i] = math.Tanh(v)
	}
	var out *Tensor
	back := func() {
		if !a.requiresGrad {
			return
		}
		a.ensureGrad()
		for i, g := range out.Grad {
			a.Grad[i] += g * (1 - data[i]*data[i])
		}
	}
	out = newResult(nil, a.Rows, a.Cols, data, back, a)
	return out
}

// Sigmoid applies the logistic function element-wise.
func Sigmoid(a *Tensor) *Tensor {
	data := make([]float64, len(a.Data))
	for i, v := range a.Data {
		data[i] = 1 / (1 + math.Exp(-v))
	}
	var out *Tensor
	back := func() {
		if !a.requiresGrad {
			return
		}
		a.ensureGrad()
		for i, g := range out.Grad {
			a.Grad[i] += g * data[i] * (1 - data[i])
		}
	}
	out = newResult(nil, a.Rows, a.Cols, data, back, a)
	return out
}

// refActivation is the activation as its own autograd node.
func refActivation(t *Tensor, act Activation) *Tensor {
	switch act {
	case ActLeakyReLU:
		return LeakyReLU(t, leakySlope)
	case ActTanh:
		return Tanh(t)
	case ActSigmoid:
		return Sigmoid(t)
	default:
		return t
	}
}

// refForward is the MLP forward as the three-node chain per layer.
func refForward(m *MLP, x *Tensor) *Tensor {
	h := x
	for i, l := range m.Layers {
		h = refActivation(AddRow(MatMul(h, l.W), l.B), m.layerAct(i))
	}
	return h
}

// cloneMLP returns a deep copy of m with fresh parameter tensors.
func cloneMLP(m *MLP) *MLP {
	c := &MLP{Act: m.Act}
	for _, l := range m.Layers {
		w, b := l.W.Clone(), l.B.Clone()
		w.MarkParam()
		b.MarkParam()
		c.Layers = append(c.Layers, &Linear{W: w, B: b})
	}
	return c
}

func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i, v := range got {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x): not bitwise", what, i, v, math.Float64bits(v), want[i], math.Float64bits(want[i]))
		}
	}
}

// compareFusedToChain runs the fused forward/backward (on a tape when tp is
// non-nil) and the three-op chain over copies of the same network and input
// with the upstream gradient g, and requires every value and every gradient —
// x, each W, each b — to agree bit for bit.
func compareFusedToChain(t *testing.T, what string, m *MLP, x0 *Tensor, g []float64, tp *Tape) {
	t.Helper()
	run := func(forward func(*MLP, *Tensor) *Tensor, x *Tensor) (*MLP, *Tensor, *Tensor) {
		net := cloneMLP(m)
		x.MarkParam()
		out := forward(net, x)
		// Seed through a weighted sum so every output element carries its own
		// upstream gradient.
		wsum := Sum(Mul(out, New(out.Rows, out.Cols, g)))
		wsum.Backward(1)
		return net, out, x
	}
	wantNet, wantOut, wantX := run(refForward, x0.Clone())
	fx := x0.Clone()
	if tp != nil {
		fx = tp.Zeros(x0.Rows, x0.Cols)
		copy(fx.Data, x0.Data)
	}
	gotNet, gotOut, gotX := run((*MLP).Forward, fx)
	bitsEqual(t, what+": values", gotOut.Data, wantOut.Data)
	bitsEqual(t, what+": dx", gotX.Grad, wantX.Grad)
	for i := range wantNet.Layers {
		bitsEqual(t, fmt.Sprintf("%s: dW%d", what, i), gotNet.Layers[i].W.Grad, wantNet.Layers[i].W.Grad)
		bitsEqual(t, fmt.Sprintf("%s: db%d", what, i), gotNet.Layers[i].B.Grad, wantNet.Layers[i].B.Grad)
	}
}

// TestFusedLayerMatchesThreeOpChain is the fused node's equivalence bar: all
// four activations, column counts that are not multiples of the 8-wide tile,
// row counts on both sides of the parallel gate, every worker count, heap
// and tape.
func TestFusedLayerMatchesThreeOpChain(t *testing.T) {
	defer SetMatMulWorkers(0)
	rng := rand.New(rand.NewSource(21))
	var tp Tape
	rowCounts := []int{1, 7, 2*kernelBlockRows - 1, 2 * kernelBlockRows, 2*kernelBlockRows + 45, 700}
	if testing.Short() { // the race run: both sides of the parallel gate, once
		rowCounts = []int{7, 2*kernelBlockRows + 45}
	}
	for _, act := range []Activation{ActLeakyReLU, ActTanh, ActSigmoid, ActIdentity} {
		for _, sizes := range [][]int{{5, 32, 16, 8}, {13, 11, 3}, {24, 32, 16, 1}} {
			m := NewMLP(sizes, act, rng)
			for _, l := range m.Layers { // non-zero biases
				for j := range l.B.Data {
					l.B.Data[j] = rng.NormFloat64()
				}
			}
			for _, n := range rowCounts {
				x := withSparsity(randTensor(rng, n, sizes[0]), rng, 0.3)
				g := make([]float64, n*sizes[len(sizes)-1])
				for i := range g {
					g[i] = rng.NormFloat64()
				}
				for _, workers := range []int{1, 2, 3, 8} {
					SetMatMulWorkers(workers)
					what := fmt.Sprintf("act=%d sizes=%v n=%d workers=%d", act, sizes, n, workers)
					compareFusedToChain(t, what+" heap", m, x, g, nil)
					tp.Reset()
					compareFusedToChain(t, what+" tape", m, x, g, &tp)
				}
			}
		}
	}
}

// TestFusedLayerSignedZero pins the one place the fused node cannot read
// LeakyReLU's derivative off the output's value alone: an output of −0. It is
// never the image of a −0 pre-activation — the kernel sums from +0, so even
// −0 weights under a −0 bias give +0 — only of a negative subnormal so small
// that 0.2·v underflows, which takes the negative-side slope. Larger negative
// subnormals keep a non-zero image.
func TestFusedLayerSignedZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	tiny := -math.SmallestNonzeroFloat64 // 0.2·tiny and 0.4·tiny round to −0
	// One input column of ones makes each pre-activation weight + bias.
	l := &Linear{W: New(1, 5, []float64{negZero, tiny, 2 * tiny, 3 * tiny, -1e-310}), B: New(1, 5, []float64{negZero, 0, 0, 0, 0})}
	m := &MLP{Layers: []*Linear{l, NewLinear(5, 2, rand.New(rand.NewSource(1)))}, Act: ActLeakyReLU}
	x := New(3, 1, []float64{1, 1, 1})
	out := l.forward(x, ActLeakyReLU).Data
	isNegZero := func(v float64) bool { return v == 0 && math.Signbit(v) }
	if out[0] != 0 || math.Signbit(out[0]) || !isNegZero(out[1]) || !isNegZero(out[2]) || out[3] == 0 || out[4] == 0 {
		t.Fatalf("fixture does not produce the zeros it is about: %v", out[:5])
	}
	g := []float64{1, -2, 3, 0.5, -1, 7}
	compareFusedToChain(t, "signed zero", m, x, g, nil)
}

// TestFusedLayerGradcheck pins the fused node's gradient to central finite
// differences for every activation.
func TestFusedLayerGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, act := range []Activation{ActLeakyReLU, ActTanh, ActSigmoid, ActIdentity} {
		m := NewMLP([]int{3, 5, 2}, act, rng)
		x := randTensor(rng, 4, 3)
		y := randTensor(rng, 4, 2)
		leaves := append([]*Tensor{x}, m.Params()...)
		checkGrads(t, func() *Tensor { return MSE(m.Forward(x), y) }, leaves...)
	}
}
