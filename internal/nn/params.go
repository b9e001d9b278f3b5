package nn

import "fmt"

// CopyParams copies the values of src into dst element-wise. The two slices
// must list tensors of identical shapes in identical order — the stable
// Params() ordering every model in this repository exposes. Gradients and
// autograd wiring of dst are left untouched. It is the synchronisation
// primitive of the parallel rollout engine: each worker's agent clone is
// refreshed from the master parameters at the start of every iteration.
func CopyParams(dst, src []*Tensor) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("nn: CopyParams length mismatch %d != %d", len(dst), len(src)))
	}
	for i, d := range dst {
		s := src[i]
		if d.Rows != s.Rows || d.Cols != s.Cols {
			panic(fmt.Sprintf("nn: CopyParams tensor %d shape %d×%d != %d×%d", i, d.Rows, d.Cols, s.Rows, s.Cols))
		}
		copy(d.Data, s.Data)
	}
}

// CloneGrads snapshots the gradient buffers of params into a detached
// per-tensor slice-of-slices. Tensors whose gradient buffer was never
// allocated yield a nil entry. The parallel trainer uses this to extract one
// episode's gradient contribution from a worker's private parameter copy
// before the buffers are reused for the next episode.
func CloneGrads(params []*Tensor) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		if p.Grad == nil {
			continue
		}
		g := make([]float64, len(p.Grad))
		copy(g, p.Grad)
		out[i] = g
	}
	return out
}

// CloneGradsInto is CloneGrads with caller-provided storage: dst's inner
// buffers are reused when shapes allow, so a rollout worker snapshotting one
// gradient per episode per iteration allocates only on its first pass.
func CloneGradsInto(dst [][]float64, params []*Tensor) [][]float64 {
	if cap(dst) < len(params) {
		dst = make([][]float64, len(params))
	}
	dst = dst[:len(params)]
	for i, p := range params {
		if p.Grad == nil {
			dst[i] = nil
			continue
		}
		if cap(dst[i]) < len(p.Grad) {
			dst[i] = make([]float64, len(p.Grad))
		}
		dst[i] = dst[i][:len(p.Grad)]
		copy(dst[i], p.Grad)
	}
	return dst
}

// AccumulateGrads adds a gradient snapshot produced by CloneGrads into the
// gradient buffers of params, allocating buffers as needed. Summing episode
// snapshots in a fixed order makes the merged gradient independent of which
// worker produced which episode.
func AccumulateGrads(params []*Tensor, grads [][]float64) {
	if len(params) != len(grads) {
		panic(fmt.Sprintf("nn: AccumulateGrads length mismatch %d != %d", len(params), len(grads)))
	}
	for i, g := range grads {
		if g == nil {
			continue
		}
		p := params[i]
		if len(g) != len(p.Data) {
			panic(fmt.Sprintf("nn: AccumulateGrads tensor %d size %d != %d", i, len(g), len(p.Data)))
		}
		p.ensureGrad()
		for j, v := range g {
			p.Grad[j] += v
		}
	}
}
