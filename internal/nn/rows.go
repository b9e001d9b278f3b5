package nn

import (
	"fmt"
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
// its rows one kernel chunk at a time into transient scratch, for the forward
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
// linearRowsF64's over each kernel chunk of gathered rows. The node's parents
// keep the chain's topological order, so every sum into a shared gradient
// keeps its order: an identity block is a parent itself, and its slice of dx
// is added at this node's backward, where ConcatCols added it; a gathered
// block that takes gradients is represented by a gather view, which takes
// GatherRows' place in the order, holds no values, gets its slice of dx as
// its gradient and scatter-adds it into the source in ascending row order,
// as GatherRows' backward did. dx's slices are computed by matmulDARows into
// zeroed scratch, so each is 0 + (G·Wᵀ), the chain's value, and only for the
// blocks that take a gradient: the columns of a constant block are never
// computed.
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
	forRowChunks(n, k, func(lo, hi int, buf []float64) {
		gatherCols(buf, in, lo, hi)
		linearRowsF64(data[lo*m:hi*m], buf, w, bias, hi-lo, k, m, act)
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
			// Each block that takes a gradient gets its dx from its own
			// rows of W. Every element sums over the same ascending j as
			// over all k columns, so its bits do not change.
			forRowChunks(n, k, func(lo, hi int, buf []float64) {
				off := 0
				for _, p := range dx {
					kb := p.Cols
					if p.requiresGrad {
						part := buf[:(hi-lo)*kb]
						clear(part)
						matmulDARows(part, g[lo*m:hi*m], w[off*m:(off+kb)*m], hi-lo, kb, m)
						dst := p.Grad[lo*kb : hi*kb]
						for j, v := range part {
							dst[j] += v
						}
					}
					off += kb
				}
			})
		}
		if l.W.requiresGrad {
			// dW = Xᵀ·G: the dB kernel over each chunk of gathered rows in
			// ascending order, so each element accumulates over ascending
			// rows, as in matmulBackward.
			l.W.ensureGrad()
			forRowChunks(n, k, func(lo, hi int, buf []float64) {
				gatherCols(buf, in, lo, hi)
				matmulDBRows(l.W.Grad, buf, g[lo*m:hi*m], hi-lo, k, m)
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

// gatherCols copies the input rows [lo, hi), all blocks' columns, into dst.
func gatherCols(dst []float64, in []Rows, lo, hi int) {
	w, off := 0, 0
	for _, b := range in {
		w += b.T.Cols
	}
	for _, b := range in {
		kb := b.T.Cols
		src := b.T.Data
		for i := lo; i < hi; i++ {
			r := i
			if b.Idx != nil {
				r = b.Idx[i]
			}
			d := (i-lo)*w + off
			copy(dst[d:d+kb], src[r*kb:(r+1)*kb])
		}
		off += kb
	}
}

// forRowChunks calls fn over [0, n) in ascending chunks of at most
// kernelBlockRows rows, handing each call the same transient scratch for a
// chunk of width-wide rows.
func forRowChunks(n, width int, fn func(lo, hi int, buf []float64)) {
	buf := getRowScratch(kernelBlockRows * width)
	for lo := 0; lo < n; lo += kernelBlockRows {
		fn(lo, min(lo+kernelBlockRows, n), *buf)
	}
	putRowScratch(buf)
}

// rowScratch recycles the transient row buffer of forwardRows' chunk loops;
// it never touches a tape.
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
		poison((*p)[:cap(*p)])
	}
	rowScratch.Put(p)
}
