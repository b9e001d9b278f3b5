package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Activation selects the non-linearity an MLP applies between layers.
type Activation int

// Supported activations.
const (
	ActLeakyReLU Activation = iota
	ActTanh
	ActSigmoid
	ActIdentity
)

// leakySlope is the negative-side slope used by ActLeakyReLU, matching the
// 0.2 slope of the original Decima implementation.
const leakySlope = 0.2

// Linear is a fully-connected layer computing x·W + b.
type Linear struct {
	W *Tensor
	B *Tensor
}

// NewLinear returns a Xavier-initialised in→out linear layer.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	return &Linear{W: Param(in, out, rng), B: ParamZero(1, out)}
}

// Forward applies the layer to a batch x (n×in) producing n×out.
func (l *Linear) Forward(x *Tensor) *Tensor { return l.forward(x, ActIdentity) }

// forward is the tracked layer act(x·W + b) as ONE autograd node. The values
// are linearRowsF64's — the kernel the inference path runs — and the node
// keeps only the post-activation output and its gradient: the backward takes
// the activation's derivative from the output, scales out.Grad by it in
// place, and then accumulates db (a column sum, ascending rows), dx and dW in
// that order. That is the arithmetic and the order of the three-node chain
// MatMul → AddRow → activation it replaces (reference_test.go keeps the chain as
// the reference): each link had a single consumer, so its gradient was its
// consumer's product added to zero, and collapsing the chain moves no other
// node in the topological order — every sum into a shared parameter keeps
// its order.
func (l *Linear) forward(x *Tensor, act Activation) *Tensor {
	if x.Cols != l.W.Rows {
		panic(fmt.Sprintf("nn: Linear shape mismatch %d×%d · %d×%d", x.Rows, x.Cols, l.W.Rows, l.W.Cols))
	}
	n, k, m := x.Rows, x.Cols, l.W.Cols
	data := x.tape.alloc(n * m) // every element is written by the kernel
	linearRowsF64(data, x.Data, l.W.Data, l.B.Data, n, k, m, act)
	var out *Tensor
	back := func() {
		g := out.Grad
		scaleByActGrad(g, out.Data, act)
		l.addBiasGrad(g, n, m)
		matmulBackward(x, l.W, g)
	}
	out = newResult(x.tape, n, m, data, back, x, l.W, l.B)
	return out
}

// addBiasGrad adds the column sums of the n×m gradient g, over ascending
// rows, into the bias gradient.
func (l *Linear) addBiasGrad(g []float64, n, m int) {
	if !l.B.requiresGrad {
		return
	}
	l.B.ensureGrad()
	bg := l.B.Grad
	for i := 0; i < n; i++ {
		for j, gv := range g[i*m : (i+1)*m] {
			bg[j] += gv
		}
	}
}

// scaleByActGrad multiplies g by act'(pre-activation) element-wise, reading
// the derivative off the layer's output. For LeakyReLU that is the output's
// sign bit, −0 counting as negative: the kernel's accumulator starts at +0,
// so a pre-activation is never −0, and an output of −0 can only be a negative
// subnormal whose product with the slope underflowed. A NaN output takes the
// slope whatever its sign; that test never fires in practice, so it predicts
// perfectly, and multiplying by 1 leaves a gradient's bits as they were.
func scaleByActGrad(g, out []float64, act Activation) {
	switch act {
	case ActLeakyReLU:
		for i, v := range out {
			s := leakyScale[math.Float64bits(v)>>63]
			if v != v {
				s = leakySlope
			}
			g[i] *= s
		}
	case ActTanh:
		for i, v := range out {
			g[i] *= 1 - v*v
		}
	case ActSigmoid:
		for i, v := range out {
			g[i] = g[i] * v * (1 - v)
		}
	}
}

// Params returns the layer's trainable tensors.
func (l *Linear) Params() []*Tensor { return []*Tensor{l.W, l.B} }

// MLP is a multi-layer perceptron with a shared hidden activation and an
// identity output layer, the building block used for Decima's six
// transformation functions f, g and the two score functions q, w (§6.1:
// two hidden layers of 32 and 16 units).
type MLP struct {
	Layers []*Linear
	Act    Activation
}

// NewMLP builds an MLP with the given layer sizes, e.g. sizes =
// [5, 32, 16, 8] gives 5→32→16→8 with the activation between all but the
// final layer.
func NewMLP(sizes []int, act Activation, rng *rand.Rand) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{Act: act}
	for i := 0; i+1 < len(sizes); i++ {
		m.Layers = append(m.Layers, NewLinear(sizes[i], sizes[i+1], rng))
	}
	return m
}

// Forward applies the network to a batch x (n×in).
func (m *MLP) Forward(x *Tensor) *Tensor {
	h := x
	for i, l := range m.Layers {
		h = l.forward(h, m.layerAct(i))
	}
	return h
}

// Params returns all trainable tensors of the network.
func (m *MLP) Params() []*Tensor {
	var ps []*Tensor
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// InDim returns the input dimensionality of the network.
func (m *MLP) InDim() int { return m.Layers[0].W.Rows }

// OutDim returns the output dimensionality of the network.
func (m *MLP) OutDim() int { return m.Layers[len(m.Layers)-1].W.Cols }
