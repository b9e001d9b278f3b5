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
// Tall inputs spread row blocks over the kernel pool (kernel.go); the arena
// allocation happens before the parallel section and workers write disjoint
// rows, so the single-owner Scratch contract holds.
func (l *Linear) ForwardInference(x *Tensor, act Activation, s *Scratch) *Tensor {
	n, k, m := x.Rows, x.Cols, l.W.Cols
	w, bias := l.W.Data, l.B.Data
	data := s.alloc(n * m) // every element is written by the kernel
	linearF64(data, x.Data, w, bias, n, k, m, act)
	return s.wrap(n, m, data)
}

// linearF64 computes out = act(a·w + bias) for row-major a (n×k), w (k×m),
// spreading row blocks over the kernel pool when the shape warrants it. The
// single-worker case calls the row kernel directly — no closure, no
// allocation.
func linearF64(out, a, w, bias []float64, n, k, m int, act Activation) {
	if workers := kernelWorkers(n, kernelBlockRows, n*k*m); workers <= 1 {
		linearRowsF64(out, a, w, bias, k, m, act, 0, n)
	} else {
		forEachRowBlock(n, kernelBlockRows, workers, func(lo, hi int) {
			linearRowsF64(out, a, w, bias, k, m, act, lo, hi)
		})
	}
}

// linearRowsF64 computes rows [lo, hi) of act(a·w + bias). Per output
// element the inner dimension accumulates in ascending p order from a zero
// accumulator — matmulRowsF64's order — then the bias is added, then the
// activation applied: the arithmetic of MatMul, AddRow and the tracked
// activation op, element for element. Eight output columns are register-tiled
// per pass and finished (bias, activation) at the tile store, so the output
// row is written once and never re-read.
func linearRowsF64(out, a, w, bias []float64, k, m int, act Activation, lo, hi int) {
	for i := lo; i < hi; i++ {
		ar := a[i*k : (i+1)*k]
		or := out[i*m : (i+1)*m]
		j := 0
		for ; j+8 <= m; j += 8 {
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
		for ; j < m; j++ {
			var s float64
			for p, av := range ar {
				s += av * w[p*m+j]
			}
			or[j] = s + bias[j]
		}
		activate(or[m&^7:], act)
	}
}

// leaky is the LeakyReLU op's per-element arithmetic.
func leaky(v float64) float64 {
	if v >= 0 {
		return v
	}
	return leakySlope * v
}

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
	matmulRowsF64(acc, prefix, l.W.Data[:(k-1)*w], k-1, w, 0, 1)
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
