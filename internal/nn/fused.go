package nn

import "math"

// ForwardInference is the layer's fused no-grad forward: matmul, bias add
// and activation in one pass over each output row, with the result drawn
// from the scratch arena instead of the garbage-collected heap. It computes
// bit-identical values to Forward followed by act.apply — the accumulation
// order over the inner dimension and the activation arithmetic match the
// tracked ops exactly — but builds no autograd graph. Tall inputs spread row
// blocks over the kernel pool (kernel.go); the arena allocation happens
// before the parallel section and workers write disjoint rows, so the
// single-owner Scratch contract holds.
func (l *Linear) ForwardInference(x *Tensor, act Activation, s *Scratch) *Tensor {
	n, k, m := x.Rows, x.Cols, l.W.Cols
	w, bias := l.W.Data, l.B.Data
	data := s.Alloc(n * m)
	if workers := kernelWorkers(n, kernelBlockRows, n*k*m); workers <= 1 {
		matmulRowsF64(data, x.Data, w, k, m, 0, n)
		applyBiasActF64(data, bias, m, act, 0, n)
	} else {
		forEachRowBlock(n, kernelBlockRows, workers, func(lo, hi int) {
			matmulRowsF64(data, x.Data, w, k, m, lo, hi)
			applyBiasActF64(data, bias, m, act, lo, hi)
		})
	}
	return New(n, m, data)
}

// applyBiasActF64 adds the bias row and applies act in place over rows
// [lo, hi) of the n×m matrix data. The arithmetic per element — add bias,
// then the activation — matches AddRow followed by the tracked activation
// ops exactly.
func applyBiasActF64(data, bias []float64, m int, act Activation, lo, hi int) {
	for i := lo; i < hi; i++ {
		or := data[i*m : (i+1)*m]
		switch act {
		case ActLeakyReLU:
			for j := range or {
				v := or[j] + bias[j]
				if v >= 0 {
					or[j] = v
				} else {
					or[j] = leakySlope * v
				}
			}
		case ActTanh:
			for j := range or {
				or[j] = math.Tanh(or[j] + bias[j])
			}
		case ActSigmoid:
			for j := range or {
				or[j] = 1 / (1 + math.Exp(-(or[j] + bias[j])))
			}
		default:
			for j := range or {
				or[j] += bias[j]
			}
		}
	}
}

// ForwardInference is the network's fused no-grad forward pass: every layer
// runs matmul+bias+activation in one sweep, all intermediates live in the
// scratch arena, and the returned tensor is valid until s.Reset. Values are
// bit-identical to Forward.
func (m *MLP) ForwardInference(x *Tensor, s *Scratch) *Tensor {
	h := x
	for i, l := range m.Layers {
		act := ActIdentity
		if i+1 < len(m.Layers) {
			act = m.Act
		}
		h = l.ForwardInference(h, act, s)
	}
	return h
}

// LogSoftmaxInto computes the flat log-softmax of src into dst (same
// length), using the same max-trick arithmetic as LogSoftmax so results are
// bit-identical. It is the no-grad kernel behind the policy's inference
// decision path.
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
