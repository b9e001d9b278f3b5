package nn

import "math/rand"

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

// apply runs the activation over t.
func (a Activation) apply(t *Tensor) *Tensor {
	switch a {
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
func (l *Linear) Forward(x *Tensor) *Tensor {
	return AddRow(MatMul(x, l.W), l.B)
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
		h = l.Forward(h)
		if i+1 < len(m.Layers) {
			h = m.Act.apply(h)
		}
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
