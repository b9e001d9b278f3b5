package nn

import (
	"math"
	"math/rand"
	"testing"
)

// Scalar reference kernels: the exact loops the pre-blocked engine ran.
// The blocked, register-tiled kernels must reproduce them bit for bit.

func refMatMul(a, b *Tensor) []float64 {
	n, k, m := a.Rows, a.Cols, b.Cols
	out := make([]float64, n*m)
	for i := 0; i < n; i++ {
		for p := 0; p < k; p++ {
			av := a.Data[i*k+p]
			for j := 0; j < m; j++ {
				out[i*m+j] += av * b.Data[p*m+j]
			}
		}
	}
	return out
}

func refMatMulBackward(a, b *Tensor, g []float64) (da, db []float64) {
	n, k, m := a.Rows, a.Cols, b.Cols
	da = make([]float64, n*k)
	db = make([]float64, k*m)
	for i := 0; i < n; i++ {
		for p := 0; p < k; p++ {
			s := 0.0
			for j := 0; j < m; j++ {
				s += g[i*m+j] * b.Data[p*m+j]
			}
			da[i*k+p] += s
		}
	}
	for i := 0; i < n; i++ {
		for p := 0; p < k; p++ {
			av := a.Data[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < m; j++ {
				db[p*m+j] += av * g[i*m+j]
			}
		}
	}
	return da, db
}

// withSparsity zeroes a fraction of entries, exercising the dB zero-skip.
func withSparsity(t *Tensor, rng *rand.Rand, frac float64) *Tensor {
	for i := range t.Data {
		if rng.Float64() < frac {
			t.Data[i] = 0
		}
	}
	return t
}

// TestMatMulBlockedBitIdentical is the kernel equivalence contract: forward,
// dA and dB of the blocked register-tiled MatMul are bit-identical to the
// scalar reference kernels, on shapes that exercise tile remainders (m and k
// not multiples of 4), one or several row chunks (exact multiples of
// kernelBlockRows and a partial last chunk) and sparse activations. The
// register-tiled dB kernel is then driven directly on odd-shaped operands,
// dense and sparse a, accumulating onto a pre-loaded non-zero bgrad.
func TestMatMulBlockedBitIdentical(t *testing.T) {
	shapes := []struct{ n, k, m int }{
		{1, 1, 1},
		{3, 5, 7},                   // remainders everywhere
		{8, 16, 8},                  // exact tiles, small
		{kernelBlockRows, 32, 8},    // exactly one row chunk
		{2 * kernelBlockRows, 9, 5}, // exactly two row chunks
		{257, 33, 9},                // tall with remainders
		{400, 32, 8},                // tall, partial last chunk
		{1024, 21, 6},               // tall with remainders
	}
	rng := rand.New(rand.NewSource(42))
	for _, sh := range shapes {
		a := withSparsity(randTensor(rng, sh.n, sh.k), rng, 0.3)
		b := randTensor(rng, sh.k, sh.m)
		g := make([]float64, sh.n*sh.m)
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		wantOut := refMatMul(a, b)
		wantDA, wantDB := refMatMulBackward(a, b, g)
		a.MarkParam()
		b.MarkParam()
		out := MatMul(a, b)
		for i, v := range out.Data {
			if v != wantOut[i] {
				t.Fatalf("%dx%dx%d: forward[%d] = %v, want %v (not bitwise)", sh.n, sh.k, sh.m, i, v, wantOut[i])
			}
		}
		out.ensureGrad()
		copy(out.Grad, g)
		out.backFn()
		for i, v := range a.Grad {
			if v != wantDA[i] {
				t.Fatalf("%dx%dx%d: dA[%d] = %v, want %v (not bitwise)", sh.n, sh.k, sh.m, i, v, wantDA[i])
			}
		}
		for i, v := range b.Grad {
			if v != wantDB[i] {
				t.Fatalf("%dx%dx%d: dB[%d] = %v, want %v (not bitwise)", sh.n, sh.k, sh.m, i, v, wantDB[i])
			}
		}
	}
	for _, sh := range []struct{ n, k, m int }{
		{1, 1, 1},
		{5, 3, 7},                     // odd k: a lone last row; m = 4+3
		{kernelBlockRows + 2, 7, 5},   // crosses one row chunk
		{2*kernelBlockRows + 1, 6, 9}, // even k, m = 8+1
		{3 * kernelBlockRows, 9, 4},   // exact chunks, exact column tile
		{kernelBlockRows - 1, 4, 1},   // a score head's single column
		{2*kernelBlockRows + 3, 8, 1}, // the heads' 8→1 layer across chunks
		{kernelBlockRows + 5, 6, 1},   // one column, k = 4+2
		{7, 3, 1},                     // one column, k < 4
	} {
		for _, sparsity := range []float64{0, 0.5} {
			a := withSparsity(randTensor(rng, sh.n, sh.k), rng, sparsity)
			g := randTensor(rng, sh.n, sh.m)
			loaded := randTensor(rng, sh.k, sh.m).Data
			want := append([]float64(nil), loaded...)
			for i := 0; i < sh.n; i++ { // the scalar kernel
				for p := 0; p < sh.k; p++ {
					av := a.Data[i*sh.k+p]
					if av == 0 {
						continue
					}
					for j := 0; j < sh.m; j++ {
						want[p*sh.m+j] += av * g.Data[i*sh.m+j]
					}
				}
			}
			got := append([]float64(nil), loaded...)
			matmulDBRows(got, a.Data, g.Data, sh.n, sh.k, sh.m)
			for i, v := range got {
				if math.Float64bits(v) != math.Float64bits(want[i]) {
					t.Fatalf("dB %dx%dx%d sparsity=%v: [%d] = %v, want %v (not bitwise)", sh.n, sh.k, sh.m, sparsity, i, v, want[i])
				}
			}
		}
	}
}

// TestFusedInferenceBlockedBitIdentical pins the fused no-grad forward to
// the tracked forward on tall inputs of several row chunks: the blocked
// fused kernel must stay bit-identical to Forward for every activation.
func TestFusedInferenceBlockedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, act := range []Activation{ActLeakyReLU, ActTanh, ActSigmoid, ActIdentity} {
		m := NewMLP([]int{13, 32, 8}, act, rng)
		x := randTensor(rng, 700, 13)
		want := m.Forward(x)
		var s Scratch
		got := m.ForwardInference(x, &s)
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("act=%d: shape %dx%d, want %dx%d", act, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i, v := range got.Data {
			if v != want.Data[i] {
				t.Fatalf("act=%d: fused[%d] = %v, want %v (not bitwise)", act, i, v, want.Data[i])
			}
		}
	}
}

// TestLinearTailBitIdentical pins linearRowsF64's tail — the columns past the
// last eight-wide tile, four rows per pass — to the scalar reference
// (refMatMul, then the bias, then the activation op) for every remainder of
// n mod 4, widths that are all tail (1, 3) or a tile plus a tail (9, 15),
// and every activation.
func TestLinearTailBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, act := range []Activation{ActLeakyReLU, ActTanh, ActSigmoid, ActIdentity} {
		for _, n := range []int{1, 2, 3, 4, 41, 50, 203, 3000} {
			for _, km := range [][2]int{{8, 1}, {16, 1}, {5, 3}, {8, 9}, {7, 15}} {
				k, m := km[0], km[1]
				a, w, bias := randTensor(rng, n, k), randTensor(rng, k, m), randTensor(rng, 1, m)
				ref := refMatMul(a, w)
				for i := range ref {
					ref[i] += bias.Data[i%m]
				}
				want := refActivation(New(n, m, ref), act).Data
				got := make([]float64, n*m)
				linearRowsF64(got, a.Data, w.Data, bias.Data, n, k, m, act)
				for i, v := range got {
					if math.Float64bits(v) != math.Float64bits(want[i]) {
						t.Fatalf("act=%d %dx%dx%d: [%d] = %v, want %v (not bitwise)", act, n, k, m, i, v, want[i])
					}
				}
			}
		}
	}
}
