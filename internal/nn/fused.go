package nn

import (
	"fmt"
	"math"
)

// ForwardInference is the layer's fused no-grad forward: matmul, bias add
// and activation in one pass over each output tile, with the result (buffer
// and header) owned by the scratch arena instead of the garbage-collected
// heap. It computes bit-identical values to Forward followed by act.apply —
// the accumulation order over the inner dimension and the activation
// arithmetic match the tracked ops exactly — but builds no autograd graph.
func (l *Linear) ForwardInference(x *Tensor, act Activation, s *Scratch) *Tensor {
	n, k, m := x.Rows, x.Cols, l.W.Cols
	data := s.alloc(n * m) // every element is written by the kernel
	linearRowsF64(data, x.Data, l.W.Data, l.B.Data, n, k, m, act)
	return s.wrap(n, m, data)
}

// linearRowsF64 computes out = act(a·w + bias) for row-major a (n×k),
// w (k×m). Per output element the inner dimension accumulates in ascending p
// order from a zero accumulator — matmulRowsF64's order — then the bias is
// added, then the activation applied: the arithmetic of MatMul, AddRow and
// the tracked activation op, element for element. Eight output columns are
// register-tiled per pass and finished (bias, activation) at the tile store,
// so the output row is written once and never re-read; the columns past the
// last tile go to linearTailF64.
func linearRowsF64(out, a, w, bias []float64, n, k, m int, act Activation) {
	for i := 0; i < n; i++ {
		ar := a[i*k : (i+1)*k]
		or := out[i*m : (i+1)*m]
		for j := 0; j+8 <= m; j += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			for p, av := range ar {
				wr := w[p*m+j : p*m+j+8 : p*m+j+8]
				s0 += av * wr[0]
				s1 += av * wr[1]
				s2 += av * wr[2]
				s3 += av * wr[3]
				s4 += av * wr[4]
				s5 += av * wr[5]
				s6 += av * wr[6]
				s7 += av * wr[7]
			}
			br := bias[j : j+8 : j+8]
			t := or[j : j+8 : j+8]
			if act == ActLeakyReLU { // the hidden activation: finished in registers
				t[0], t[1], t[2], t[3] = leaky(s0+br[0]), leaky(s1+br[1]), leaky(s2+br[2]), leaky(s3+br[3])
				t[4], t[5], t[6], t[7] = leaky(s4+br[4]), leaky(s5+br[5]), leaky(s6+br[6]), leaky(s7+br[7])
				continue
			}
			t[0], t[1], t[2], t[3] = s0+br[0], s1+br[1], s2+br[2], s3+br[3]
			t[4], t[5], t[6], t[7] = s4+br[4], s5+br[5], s6+br[6], s7+br[7]
			activate(t, act)
		}
	}
	if m&7 != 0 {
		linearTailF64(out, a, w, bias, n, k, m, act)
	}
}

// linearTailF64 computes linearRowsF64's columns [m&^7, m): all of a layer
// narrower than eight, such as the 8→1 output layer of the Q, W and C heads.
// One row per pass would leave a single dependent add chain per element;
// four rows per pass run four independent chains on one load of w. Each
// element still sums ascending p from +0, then adds the bias, then the
// activation.
func linearTailF64(out, a, w, bias []float64, n, k, m int, act Activation) {
	j0 := m &^ 7
	i := 0
	for ; i+4 <= n; i += 4 {
		a0 := a[i*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k][:len(a0)]
		a2 := a[(i+2)*k : (i+3)*k][:len(a0)]
		a3 := a[(i+3)*k : (i+4)*k][:len(a0)]
		for j := j0; j < m; j++ {
			var s0, s1, s2, s3 float64
			for p, av := range a0 {
				wv := w[p*m+j]
				s0 += av * wv
				s1 += a1[p] * wv
				s2 += a2[p] * wv
				s3 += a3[p] * wv
			}
			bj := bias[j]
			out[i*m+j], out[(i+1)*m+j], out[(i+2)*m+j], out[(i+3)*m+j] = s0+bj, s1+bj, s2+bj, s3+bj
		}
	}
	for ; i < n; i++ {
		ar := a[i*k : (i+1)*k]
		for j := j0; j < m; j++ {
			var s float64
			for p, av := range ar {
				s += av * w[p*m+j]
			}
			out[i*m+j] = s + bias[j]
		}
	}
	if j0 == 0 { // the whole output is tail
		activate(out[:n*m], act)
		return
	}
	for i := 0; i < n; i++ {
		activate(out[i*m+j0:(i+1)*m], act)
	}
}

// leakyScale is LeakyReLU's multiplier indexed by the sign bit: 1 for +0 and
// up, the slope for −0 and below, NaNs by their sign.
var leakyScale = [2]float64{1, leakySlope}

// leaky is the LeakyReLU op's per-element arithmetic, without a branch: the
// sign bit picks the multiplier. It is bit-identical to the branch "v if
// v >= 0, else slope·v" for every float64 — −0 maps to −0 either way, and a
// NaN comes back with its own payload from both (reference_test.go keeps the
// branch and a special-values table).
func leaky(v float64) float64 { return v * leakyScale[math.Float64bits(v)>>63] }

// activate applies act in place, with the tracked activation ops' arithmetic.
func activate(v []float64, act Activation) {
	switch act {
	case ActLeakyReLU:
		for j, x := range v {
			v[j] = leaky(x)
		}
	case ActTanh:
		for j, x := range v {
			v[j] = math.Tanh(x)
		}
	case ActSigmoid:
		for j, x := range v {
			v[j] = 1 / (1 + math.Exp(-x))
		}
	}
}

// ForwardInference is the network's fused no-grad forward pass: every layer
// runs matmul+bias+activation in one sweep, all intermediates live in the
// scratch arena, and the returned tensor is valid until s.Reset. Values are
// bit-identical to Forward.
func (m *MLP) ForwardInference(x *Tensor, s *Scratch) *Tensor {
	return m.forwardInferenceFrom(0, x, s)
}

// forwardInferenceFrom runs layers [first, len) over h.
func (m *MLP) forwardInferenceFrom(first int, h *Tensor, s *Scratch) *Tensor {
	for i := first; i < len(m.Layers); i++ {
		h = m.Layers[i].ForwardInference(h, m.layerAct(i), s)
	}
	return h
}

// layerAct is the activation after layer i: identity on the output layer.
func (m *MLP) layerAct(i int) Activation {
	if i+1 < len(m.Layers) {
		return m.Act
	}
	return ActIdentity
}

// ForwardInferenceSharedPrefix is ForwardInference over the len(last) rows
// [prefix, last[i]] — inputs that agree on every column but the final one,
// the shape of the policy's limit-as-input and class heads — without
// building them. The first layer's kernel accumulates each output element
// over ascending input columns from a zero accumulator, a sequential sum, so
// the partial sum over the shared prefix is the same float64 for every row:
// it is computed once and each row adds only its last-column term, then the
// bias, then the activation, exactly the order the kernel uses. Results are
// bit-identical to ForwardInference on the materialised rows.
func (m *MLP) ForwardInferenceSharedPrefix(prefix, last []float64, s *Scratch) *Tensor {
	l := m.Layers[0]
	k, w := l.W.Rows, l.W.Cols
	if len(prefix) != k-1 {
		panic(fmt.Sprintf("nn: shared prefix of %d columns for a %d-input layer", len(prefix), k))
	}
	acc := s.alloc(w)
	matmulRowsF64(acc, prefix, l.W.Data[:(k-1)*w], 1, k-1, w)
	wLast, bias, act := l.W.Data[(k-1)*w:], l.B.Data, m.layerAct(0)
	data := s.alloc(len(last) * w)
	for i, lv := range last {
		or := data[i*w : (i+1)*w]
		for j := range or {
			v := acc[j]
			v += lv * wLast[j]
			or[j] = v + bias[j]
		}
		activate(or, act)
	}
	return m.forwardInferenceFrom(1, s.wrap(len(last), w, data), s)
}

// LogSoftmaxInto computes the flat log-softmax of src into dst (same
// length), numerically stabilised by the max trick. It is the one softmax
// kernel of the stack: the inference decide path samples from it and
// SegmentPickLoss replays it, which is what makes the two bit-identical.
func LogSoftmaxInto(dst, src []float64) {
	maxV := math.Inf(-1)
	for _, v := range src {
		if v > maxV {
			maxV = v
		}
	}
	sum := 0.0
	for _, v := range src {
		sum += math.Exp(v - maxV)
	}
	logZ := maxV + math.Log(sum)
	for i, v := range src {
		dst[i] = v - logZ
	}
}
