package nn

import "fmt"

// MatMul returns a×b for a (n×k) and b (k×m). Forward and both backwards run
// on the blocked, register-tiled kernels in kernel.go. Results and gradients
// are bit-identical to the scalar kernels — see kernel.go's equivalence
// contract.
func MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nn: MatMul shape mismatch %d×%d · %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	n, k, m := a.Rows, a.Cols, b.Cols
	tp := tapeOf(a, b)
	data := tp.alloc(n * m)
	matmulRowsF64(data, a.Data, b.Data, n, k, m)
	var out *Tensor
	back := func() { matmulBackward(a, b, out.Grad) }
	out = newResult(tp, n, m, data, back, a, b)
	return out
}

// matmulBackward accumulates the gradients of a·b given g = d(loss)/d(a·b):
// dA = G·Bᵀ then dB = Aᵀ·G, each only if its operand takes gradients.
func matmulBackward(a, b *Tensor, g []float64) {
	n, k, m := a.Rows, a.Cols, b.Cols
	if a.requiresGrad {
		a.ensureGrad()
		matmulDARows(a.Grad, g, b.Data, n, k, m)
	}
	if b.requiresGrad {
		b.ensureGrad()
		matmulDBRows(b.Grad, a.Data, g, n, k, m)
	}
}

// Add returns the element-wise sum of two same-shaped tensors.
func Add(a, b *Tensor) *Tensor {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: Add shape mismatch %d×%d + %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	tp := tapeOf(a, b)
	data := tp.alloc(len(a.Data))
	for i := range data {
		data[i] = a.Data[i] + b.Data[i]
	}
	var out *Tensor
	back := func() {
		if a.requiresGrad {
			accumulate(a, out.Grad)
		}
		if b.requiresGrad {
			accumulate(b, out.Grad)
		}
	}
	out = newResult(tp, a.Rows, a.Cols, data, back, a, b)
	return out
}

// Sub returns a−b element-wise for same-shaped tensors.
func Sub(a, b *Tensor) *Tensor {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("nn: Sub shape mismatch")
	}
	tp := tapeOf(a, b)
	data := tp.alloc(len(a.Data))
	for i := range data {
		data[i] = a.Data[i] - b.Data[i]
	}
	var out *Tensor
	back := func() {
		if a.requiresGrad {
			accumulate(a, out.Grad)
		}
		if b.requiresGrad {
			b.ensureGrad()
			for i, g := range out.Grad {
				b.Grad[i] -= g
			}
		}
	}
	out = newResult(tp, a.Rows, a.Cols, data, back, a, b)
	return out
}

// Mul returns the element-wise (Hadamard) product of same-shaped tensors.
func Mul(a, b *Tensor) *Tensor {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("nn: Mul shape mismatch")
	}
	tp := tapeOf(a, b)
	data := tp.alloc(len(a.Data))
	for i := range data {
		data[i] = a.Data[i] * b.Data[i]
	}
	var out *Tensor
	back := func() {
		if a.requiresGrad {
			a.ensureGrad()
			for i, g := range out.Grad {
				a.Grad[i] += g * b.Data[i]
			}
		}
		if b.requiresGrad {
			b.ensureGrad()
			for i, g := range out.Grad {
				b.Grad[i] += g * a.Data[i]
			}
		}
	}
	out = newResult(tp, a.Rows, a.Cols, data, back, a, b)
	return out
}

// Scale returns a scaled by the constant s.
func Scale(a *Tensor, s float64) *Tensor {
	data := a.tape.alloc(len(a.Data))
	for i := range data {
		data[i] = a.Data[i] * s
	}
	var out *Tensor
	back := func() {
		if a.requiresGrad {
			a.ensureGrad()
			for i, g := range out.Grad {
				a.Grad[i] += g * s
			}
		}
	}
	out = newResult(a.tape, a.Rows, a.Cols, data, back, a)
	return out
}

// Sum reduces all elements to a 1×1 scalar.
func Sum(a *Tensor) *Tensor {
	s := 0.0
	for _, v := range a.Data {
		s += v
	}
	data := a.tape.alloc(1)
	data[0] = s
	var out *Tensor
	back := func() {
		if !a.requiresGrad {
			return
		}
		a.ensureGrad()
		g := out.Grad[0]
		for i := range a.Grad {
			a.Grad[i] += g
		}
	}
	out = newResult(a.tape, 1, 1, data, back, a)
	return out
}

// Mean reduces all elements to their arithmetic mean as a 1×1 scalar.
func Mean(a *Tensor) *Tensor {
	return Scale(Sum(a), 1/float64(len(a.Data)))
}

// SumRows column-sums an n×m tensor into a 1×m row.
func SumRows(a *Tensor) *Tensor {
	m := a.Cols
	data := a.tape.zeros(m)
	for i := 0; i < a.Rows; i++ {
		ar := a.Data[i*m : (i+1)*m]
		for j, v := range ar {
			data[j] += v
		}
	}
	var out *Tensor
	back := func() {
		if !a.requiresGrad {
			return
		}
		a.ensureGrad()
		for i := 0; i < a.Rows; i++ {
			gr := a.Grad[i*m : (i+1)*m]
			for j := range gr {
				gr[j] += out.Grad[j]
			}
		}
	}
	out = newResult(a.tape, 1, m, data, back, a)
	return out
}

// GatherRows selects rows of a by index, producing len(idx)×m. Indices may
// repeat; gradients scatter-add back to the source rows.
func GatherRows(a *Tensor, idx []int) *Tensor {
	m := a.Cols
	data := a.tape.alloc(len(idx) * m)
	for i, r := range idx {
		copy(data[i*m:(i+1)*m], a.Data[r*m:(r+1)*m])
	}
	var out *Tensor
	back := func() {
		if !a.requiresGrad {
			return
		}
		a.ensureGrad()
		for i, r := range idx {
			ag := a.Grad[r*m : (r+1)*m]
			gr := out.Grad[i*m : (i+1)*m]
			for j, g := range gr {
				ag[j] += g
			}
		}
	}
	out = newResult(a.tape, len(idx), m, data, back, a)
	return out
}

// SegmentSum scatter-adds the rows of a (n×m) into numSegments output rows:
// out[seg[i]] += a[i]. It is the aggregation primitive of the graph neural
// network (summing child messages into each parent).
func SegmentSum(a *Tensor, seg []int, numSegments int) *Tensor {
	if len(seg) != a.Rows {
		panic("nn: SegmentSum segment length mismatch")
	}
	m := a.Cols
	data := a.tape.zeros(numSegments * m)
	for i, s := range seg {
		if s < 0 || s >= numSegments {
			panic("nn: SegmentSum index out of range")
		}
		dr := data[s*m : (s+1)*m]
		ar := a.Data[i*m : (i+1)*m]
		for j, v := range ar {
			dr[j] += v
		}
	}
	var out *Tensor
	back := func() {
		if !a.requiresGrad {
			return
		}
		a.ensureGrad()
		for i, s := range seg {
			ag := a.Grad[i*m : (i+1)*m]
			gr := out.Grad[s*m : (s+1)*m]
			for j, g := range gr {
				ag[j] += g
			}
		}
	}
	out = newResult(a.tape, numSegments, m, data, back, a)
	return out
}

// Square returns the element-wise square of a.
func Square(a *Tensor) *Tensor { return Mul(a, a) }

// MSE returns the mean squared error between two same-shaped tensors.
func MSE(pred, target *Tensor) *Tensor { return Mean(Square(Sub(pred, target))) }

// AddRowsInPlace adds row i of d to row idx[i] of e, for every i, in e's own
// storage, and returns the sum as a new node over that storage. It is the
// level update of message passing, e_v = agg_v + x̂_v: the node-embedding
// matrix starts as the projected features x̂ and each level overwrites its
// parents' rows, so one matrix serves every level. e's old values are gone
// afterwards: the caller reads the rows only through the result, and nothing
// whose backward reads e's values may consume e (an MLP output does not: its
// last layer is the identity).
//
// ∂out/∂e is the identity and ∂out/∂d the idx rows of out's gradient. The
// backward adds those rows into d's gradient in ascending i, then hands out's
// gradient on to e as its own when e has none yet. For distinct idx, values
// and gradients are those of ScatterRows(e, idx, Add(d, GatherRows(e, idx)))
// over e's old values, bit for bit (reference_test.go).
func AddRowsInPlace(e *Tensor, idx []int, d *Tensor) *Tensor {
	if d.Rows != len(idx) || e.Cols != d.Cols {
		panic(fmt.Sprintf("nn: AddRowsInPlace shape mismatch %d×%d += %d rows of %d×%d", e.Rows, e.Cols, len(idx), d.Rows, d.Cols))
	}
	m := e.Cols
	for i, r := range idx {
		er := e.Data[r*m : (r+1)*m]
		for j, v := range d.Data[i*m : (i+1)*m] {
			er[j] = v + er[j]
		}
	}
	tp := tapeOf(e, d)
	var out *Tensor
	back := func() {
		g := out.Grad
		if d.requiresGrad {
			d.ensureGrad()
			for i, r := range idx {
				dg := d.Grad[i*m : (i+1)*m]
				for j, gv := range g[r*m : (r+1)*m] {
					dg[j] += gv
				}
			}
		}
		if e.requiresGrad {
			if e.Grad == nil && e.tape == tp {
				e.Grad, out.Grad = g, nil // 0 + g is g: a sum from +0 is never −0
			} else {
				accumulate(e, g)
			}
		}
	}
	out = newResult(tp, e.Rows, m, e.Data, back, e, d)
	return out
}

// ConcatRows stacks tensors with equal column counts along rows.
func ConcatRows(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("nn: ConcatRows of nothing")
	}
	cols := ts[0].Cols
	rows := 0
	for _, t := range ts {
		if t.Cols != cols {
			panic("nn: ConcatRows column mismatch")
		}
		rows += t.Rows
	}
	tp := tapeOf(ts...)
	data := tp.alloc(rows * cols)
	off := 0
	for _, t := range ts {
		copy(data[off:off+len(t.Data)], t.Data)
		off += len(t.Data)
	}
	var out *Tensor
	back := func() {
		off := 0
		for _, t := range ts {
			if t.requiresGrad {
				t.ensureGrad()
				for i := range t.Grad {
					t.Grad[i] += out.Grad[off+i]
				}
			}
			off += len(t.Data)
		}
	}
	out = newResult(tp, rows, cols, data, back, ts...)
	return out
}
