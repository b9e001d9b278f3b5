package nn

import (
	"fmt"
	"math"
	"sync"
)

// Rows is one column block of a layer input, read where it lives: row i of
// the block is row Idx[i] of T, or row i of T when Idx is nil. A block whose
// T takes no gradient is a constant, like the policy heads' limit column.
type Rows struct {
	T   *Tensor
	Idx []int
}

func (b Rows) rows() int {
	if b.Idx == nil {
		return b.T.Rows
	}
	return len(b.Idx)
}

// ForwardRows is Forward over the input whose row i is row i of every block,
// concatenated in order: the values and gradients of
// Forward(ConcatCols(GatherRows(T₁, Idx₁), …)) bit for bit, with a nil Idx
// standing for T itself, but the input is never built. The first layer copies
// its rows one kernel block at a time into transient scratch, for the forward
// and again for dW; dx goes to the sources (reference_test.go keeps the
// chain).
func (m *MLP) ForwardRows(in ...Rows) *Tensor {
	h := m.Layers[0].forwardRows(in, m.layerAct(0))
	for i := 1; i < len(m.Layers); i++ {
		h = m.Layers[i].forward(h, m.layerAct(i))
	}
	return h
}

// forwardRows is forward over a row-gathered input: one node whose values are
// linearRowsF64's over each kernel block of gathered rows. The node's parents
// keep the chain's topological order, so every sum into a shared gradient
// keeps its order: an identity block is a parent itself, and its slice of dx
// is added at this node's backward, where ConcatCols added it; a gathered
// block that takes gradients is represented by a gather view, which takes
// GatherRows' place in the order, holds no values, gets its slice of dx as
// its gradient and scatter-adds it into the source in ascending row order,
// as GatherRows' backward did. dx's slices are computed by matmulDARows into
// zeroed scratch, so each is 0 + (G·Wᵀ), the chain's value.
func (l *Linear) forwardRows(in []Rows, act Activation) *Tensor {
	n, k, m := in[0].rows(), 0, l.W.Cols
	parents := make([]*Tensor, 0, len(in)+2)
	for _, b := range in {
		if b.rows() != n {
			panic(fmt.Sprintf("nn: ForwardRows blocks of %d and %d rows", n, b.rows()))
		}
		k += b.T.Cols
		parents = append(parents, b.T)
	}
	if k != l.W.Rows {
		panic(fmt.Sprintf("nn: Linear shape mismatch %d×%d · %d×%d", n, k, l.W.Rows, m))
	}
	tp := tapeOf(parents...)
	data := tp.alloc(n * m) // every element is written by the kernel
	w, bias := l.W.Data, l.B.Data
	forRowChunks(n, k, n*k*m, func(lo, hi int, buf []float64) {
		gatherCols(buf, in, lo, hi, 0, k)
		linearRowsF64(data[lo*m:hi*m], buf, w, bias, k, m, act, 0, hi-lo)
	})
	for i, b := range in {
		if b.Idx != nil && b.T.requiresGrad {
			parents[i] = gatherView(tp, b)
		}
	}
	parents = append(parents, l.W, l.B)
	var out *Tensor
	back := func() {
		g := out.Grad
		scaleByActGrad(g, out.Data, act)
		l.addBiasGrad(g, n, m)
		dx := parents[:len(in)] // the sources and views dx slices go to
		wantDX := false
		for i, p := range dx {
			if p.requiresGrad {
				wantDX = true
				if p != in[i].T { // a view
					p.Grad = p.tape.grad(n * p.Cols)
				} else {
					p.ensureGrad()
				}
			}
		}
		if wantDX {
			forRowChunks(n, k, n*k*m, func(lo, hi int, buf []float64) {
				buf = buf[:(hi-lo)*k]
				clear(buf)
				matmulDARows(buf, g[lo*m:hi*m], w, k, m, 0, hi-lo)
				off := 0
				for _, p := range dx {
					kb := p.Cols
					if p.requiresGrad {
						for i := lo; i < hi; i++ {
							dst := p.Grad[i*kb : (i+1)*kb]
							for j, v := range buf[(i-lo)*k+off : (i-lo)*k+off+kb] {
								dst[j] += v
							}
						}
					}
					off += kb
				}
			})
		}
		if l.W.requiresGrad {
			// dW = Xᵀ·G, owner-computes over dW rows as in matmulBackward: a
			// worker gathers its band's columns of each kernel block of rows
			// and runs the dB kernel over that block, so each element still
			// accumulates over ascending rows.
			l.W.ensureGrad()
			forEachRowBlock(k, dbBlockRows, kernelWorkers(k, dbBlockRows, n*k*m), func(plo, phi int) {
				bw := phi - plo
				buf := getRowScratch(kernelBlockRows * bw)
				for lo := 0; lo < n; lo += kernelBlockRows {
					hi := min(lo+kernelBlockRows, n)
					gatherCols(*buf, in, lo, hi, plo, phi)
					matmulDBRows(l.W.Grad[plo*m:phi*m], *buf, g[lo*m:hi*m], hi-lo, bw, m, 0, bw)
				}
				putRowScratch(buf)
			})
		}
	}
	out = newResult(tp, n, m, data, back, parents...)
	return out
}

// gatherView stands where GatherRows(b.T, b.Idx) stood in the chain: a node
// with no values whose gradient, filled by the layer that reads it, it
// scatter-adds into b.T's in ascending row order.
func gatherView(tp *Tape, b Rows) *Tensor {
	a, idx, c := b.T, b.Idx, b.T.Cols
	var v *Tensor
	back := func() {
		a.ensureGrad()
		for i, r := range idx {
			ag := a.Grad[r*c : (r+1)*c]
			for j, g := range v.Grad[i*c : (i+1)*c] {
				ag[j] += g
			}
		}
	}
	v = newResult(tp, len(idx), c, nil, back, a)
	return v
}

// gatherCols copies columns [c0, c1) of the input rows [lo, hi) into dst,
// row-major with c1−c0 columns.
func gatherCols(dst []float64, in []Rows, lo, hi, c0, c1 int) {
	w, off := c1-c0, 0
	for _, b := range in {
		kb := b.T.Cols
		if s, e := max(off, c0), min(off+kb, c1); s < e {
			src := b.T.Data
			for i := lo; i < hi; i++ {
				r := i
				if b.Idx != nil {
					r = b.Idx[i]
				}
				d := (i-lo)*w - c0
				copy(dst[d+s:d+e], src[r*kb+s-off:r*kb+e-off])
			}
		}
		off += kb
	}
}

// forRowChunks calls fn over [0, n) in chunks of at most kernelBlockRows rows,
// spread over the kernel pool when a kernel of flops multiply-adds would be,
// handing each call transient scratch for a chunk of width-wide rows.
func forRowChunks(n, width, flops int, fn func(lo, hi int, buf []float64)) {
	forEachRowBlock(n, kernelBlockRows, kernelWorkers(n, kernelBlockRows, flops), func(lo, hi int) {
		buf := getRowScratch(kernelBlockRows * width)
		for c := lo; c < hi; c += kernelBlockRows {
			fn(c, min(c+kernelBlockRows, hi), *buf)
		}
		putRowScratch(buf)
	})
}

// rowScratch recycles the transient row buffers of forwardRows, one per
// kernel block in flight; they never touch a tape.
var rowScratch = sync.Pool{New: func() any { return new([]float64) }}

// getRowScratch returns a length-n row buffer with unspecified contents.
func getRowScratch(n int) *[]float64 {
	p := rowScratch.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

// putRowScratch recycles a row buffer. Race builds poison it first, so a
// read of a row the current chunk did not write surfaces as a NaN.
func putRowScratch(p *[]float64) {
	if poisonRecycled {
		all := (*p)[:cap(*p)]
		for i := range all {
			all[i] = math.NaN()
		}
	}
	rowScratch.Put(p)
}
