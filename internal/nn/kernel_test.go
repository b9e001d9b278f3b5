package nn

import (
	"math"
	"math/rand"
	"testing"
)

// Scalar reference kernels: the exact loops the pre-blocked engine ran.
// The blocked/tiled/parallel kernels must reproduce them bit for bit.

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
// scalar reference kernels for every worker count, on shapes that exercise
// the single-thread path, the parallel path, tile remainders (m and k not
// multiples of 4) and sparse activations. The register-tiled dB kernel is
// then driven directly: every band split [plo, phi) of odd-shaped operands,
// dense and sparse a, accumulating onto a pre-loaded non-zero bgrad.
func TestMatMulBlockedBitIdentical(t *testing.T) {
	defer SetMatMulWorkers(0)
	shapes := []struct{ n, k, m int }{
		{1, 1, 1},
		{3, 5, 7},     // remainders everywhere
		{8, 16, 8},    // exact tiles, small
		{257, 33, 9},  // tall with remainders, below flop gate
		{400, 32, 8},  // tall: triggers the parallel forward and dB paths
		{1024, 21, 6}, // tall with remainders, parallel
	}
	rng := rand.New(rand.NewSource(42))
	for _, sh := range shapes {
		a0 := withSparsity(randTensor(rng, sh.n, sh.k), rng, 0.3)
		b0 := randTensor(rng, sh.k, sh.m)
		g := make([]float64, sh.n*sh.m)
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		wantOut := refMatMul(a0, b0)
		wantDA, wantDB := refMatMulBackward(a0, b0, g)
		for _, workers := range []int{1, 2, 3, 8} {
			SetMatMulWorkers(workers)
			a := a0.Clone()
			b := b0.Clone()
			a.MarkParam()
			b.MarkParam()
			out := MatMul(a, b)
			for i, v := range out.Data {
				if v != wantOut[i] {
					t.Fatalf("%dx%dx%d workers=%d: forward[%d] = %v, want %v (not bitwise)", sh.n, sh.k, sh.m, workers, i, v, wantOut[i])
				}
			}
			out.ensureGrad()
			copy(out.Grad, g)
			out.backFn()
			for i, v := range a.Grad {
				if v != wantDA[i] {
					t.Fatalf("%dx%dx%d workers=%d: dA[%d] = %v, want %v (not bitwise)", sh.n, sh.k, sh.m, workers, i, v, wantDA[i])
				}
			}
			for i, v := range b.Grad {
				if v != wantDB[i] {
					t.Fatalf("%dx%dx%d workers=%d: dB[%d] = %v, want %v (not bitwise)", sh.n, sh.k, sh.m, workers, i, v, wantDB[i])
				}
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
			for plo := 0; plo <= sh.k; plo++ {
				for phi := plo; phi <= sh.k; phi++ {
					got := append([]float64(nil), loaded...)
					matmulDBRows(got, a.Data, g.Data, sh.n, sh.k, sh.m, plo, phi)
					for i, v := range got {
						w := loaded[i] // rows outside the band are not the caller's
						if p := i / sh.m; p >= plo && p < phi {
							w = want[i]
						}
						if math.Float64bits(v) != math.Float64bits(w) {
							t.Fatalf("dB %dx%dx%d sparsity=%v band [%d,%d): [%d] = %v, want %v (not bitwise)", sh.n, sh.k, sh.m, sparsity, plo, phi, i, v, w)
						}
					}
				}
			}
		}
	}
}

// TestFusedInferenceBlockedBitIdentical pins the fused no-grad forward to
// the tracked forward on tall inputs that cross the parallel threshold, for
// several worker counts: the blocked fused kernel must stay bit-identical to
// Forward for every activation.
func TestFusedInferenceBlockedBitIdentical(t *testing.T) {
	defer SetMatMulWorkers(0)
	rng := rand.New(rand.NewSource(7))
	for _, act := range []Activation{ActLeakyReLU, ActTanh, ActSigmoid, ActIdentity} {
		m := NewMLP([]int{13, 32, 8}, act, rng)
		x := randTensor(rng, 700, 13) // 700·13·32 flops: parallel path on
		want := m.Forward(x)
		for _, workers := range []int{1, 2, 5} {
			SetMatMulWorkers(workers)
			var s Scratch
			got := m.ForwardInference(x, &s)
			if got.Rows != want.Rows || got.Cols != want.Cols {
				t.Fatalf("act=%d: shape %dx%d, want %dx%d", act, got.Rows, got.Cols, want.Rows, want.Cols)
			}
			for i, v := range got.Data {
				if v != want.Data[i] {
					t.Fatalf("act=%d workers=%d: fused[%d] = %v, want %v (not bitwise)", act, workers, i, v, want.Data[i])
				}
			}
		}
	}
}

// TestMatMulWorkersConfig pins the flag semantics: negative clamps to the
// GOMAXPROCS default, explicit values are reported back.
func TestMatMulWorkersConfig(t *testing.T) {
	defer SetMatMulWorkers(0)
	SetMatMulWorkers(3)
	if got := MatMulWorkers(); got != 3 {
		t.Fatalf("MatMulWorkers() = %d, want 3", got)
	}
	SetMatMulWorkers(-5)
	if got := MatMulWorkers(); got < 1 {
		t.Fatalf("MatMulWorkers() = %d after negative set, want >= 1", got)
	}
}
