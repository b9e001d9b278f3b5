package nn

// This file is the raw-speed matmul kernel layer: the register-tiled,
// cache-blocked inner loops of the tracked MatMul op (ops.go), shared with
// the fused no-grad kernel (linearRowsF64, fused.go). Every kernel runs on
// its caller's goroutine: training's parallelism is one level up, over
// episodes (rl.Config.Workers).
// docs/KERNELS.md documents the scheme; BenchmarkKernel*
// (kernel_bench_test.go) measures it.
//
// Equivalence contract: every kernel computes each output element with
// contributions accumulated in exactly the scalar kernel's order (ascending
// inner index), so results are bit-identical to the scalar kernel
// (TestMatMulBlockedBitIdentical). Register tiling (four output columns per
// pass here, eight in the fused kernel) and row chunking change which
// elements share a loop iteration, never the per-element accumulation order.

// kernelBlockRows is the row-chunk unit of the blocked kernels. It bounds a
// chunk's working set (kernelBlockRows·(k+m) float64s — ≲100 KiB at this
// repository's widest stacked shapes, comfortably L2-resident while the
// small k×m operand stays in L1).
const kernelBlockRows = 128

// matmulRowsF64 computes out = a·b for row-major a (n×k), b (k×m). Per output element the
// inner dimension accumulates in ascending p order — the scalar kernel's
// order — with four output columns register-tiled per pass so the inner loop
// carries no loads or stores of the output row. No zero-skip: the branchless
// loop stays in arithmetic lockstep with every other forward kernel (see
// BenchmarkMatMul for the measured trade-off).
func matmulRowsF64(out, a, b []float64, n, k, m int) {
	for i := 0; i < n; i++ {
		ar := a[i*k : (i+1)*k]
		or := out[i*m : (i+1)*m]
		j := 0
		for ; j+4 <= m; j += 4 {
			var s0, s1, s2, s3 float64
			for p, av := range ar {
				br := b[p*m+j : p*m+j+4 : p*m+j+4]
				s0 += av * br[0]
				s1 += av * br[1]
				s2 += av * br[2]
				s3 += av * br[3]
			}
			or[j] = s0
			or[j+1] = s1
			or[j+2] = s2
			or[j+3] = s3
		}
		for ; j < m; j++ {
			var s float64
			for p, av := range ar {
				s += av * b[p*m+j]
			}
			or[j] = s
		}
	}
}

// matmulDARows accumulates dA += G·Bᵀ over the n rows of G (the MatMul
// backward for the left operand): dA[i,p] += Σ_j g[i,j]·b[p,j], ascending j
// per element, four dA columns register-tiled per pass.
func matmulDARows(agrad, g, b []float64, n, k, m int) {
	for i := 0; i < n; i++ {
		gr := g[i*m : (i+1)*m]
		agr := agrad[i*k : (i+1)*k]
		p := 0
		for ; p+4 <= k; p += 4 {
			b0 := b[p*m : (p+1)*m]
			b1 := b[(p+1)*m : (p+2)*m]
			b2 := b[(p+2)*m : (p+3)*m]
			b3 := b[(p+3)*m : (p+4)*m]
			var s0, s1, s2, s3 float64
			for j, gv := range gr {
				s0 += gv * b0[j]
				s1 += gv * b1[j]
				s2 += gv * b2[j]
				s3 += gv * b3[j]
			}
			agr[p] += s0
			agr[p+1] += s1
			agr[p+2] += s2
			agr[p+3] += s3
		}
		for ; p < k; p++ {
			br := b[p*m : (p+1)*m]
			var s float64
			for j, gv := range gr {
				s += gv * br[j]
			}
			agr[p] += s
		}
	}
}

// matmulDBRows accumulates dB += Aᵀ·G (the MatMul backward for the right
// operand): dB[p,j] += Σ_i a[i,p]·g[i,j], ascending i per element, starting
// from the value bgrad already holds. A tile of two dB rows × four columns
// lives in locals across the i loop, so the inner loop loads two a's and
// four g's for eight multiply-adds and stores nothing; the i range is walked
// in kernelBlockRows-row chunks so the a and g rows a chunk's (k/2)·(m/4)
// tiles re-read stay cache-resident. Tiling and chunking change which
// elements share a loop, never the order one element accumulates in, so the
// result is bit-identical to the scalar kernel. The zero-skip stays, per
// a[i,p]: dA-side activations are often sparse (zero locality flags, ablated
// duration features) and a skipped i contributes nothing either way. A
// one-column G (the heads' 8→1 output layer) goes to matmulDBColumn.
func matmulDBRows(bgrad, a, g []float64, n, k, m int) {
	if m == 1 {
		matmulDBColumn(bgrad, a, g, n, k)
		return
	}
	for i0 := 0; i0 < n; i0 += kernelBlockRows {
		i1 := min(i0+kernelBlockRows, n)
		p := 0
		for ; p+2 <= k; p += 2 {
			b0 := bgrad[p*m : (p+1)*m]
			b1 := bgrad[(p+1)*m : (p+2)*m]
			j := 0
			for ; j+4 <= m; j += 4 {
				s00, s01, s02, s03 := b0[j], b0[j+1], b0[j+2], b0[j+3]
				s10, s11, s12, s13 := b1[j], b1[j+1], b1[j+2], b1[j+3]
				for i := i0; i < i1; i++ {
					a0, a1 := a[i*k+p], a[i*k+p+1]
					gr := g[i*m+j : i*m+j+4 : i*m+j+4]
					if a0 != 0 {
						s00 += a0 * gr[0]
						s01 += a0 * gr[1]
						s02 += a0 * gr[2]
						s03 += a0 * gr[3]
					}
					if a1 != 0 {
						s10 += a1 * gr[0]
						s11 += a1 * gr[1]
						s12 += a1 * gr[2]
						s13 += a1 * gr[3]
					}
				}
				b0[j], b0[j+1], b0[j+2], b0[j+3] = s00, s01, s02, s03
				b1[j], b1[j+1], b1[j+2], b1[j+3] = s10, s11, s12, s13
			}
			for ; j < m; j++ {
				s0, s1 := b0[j], b1[j]
				for i := i0; i < i1; i++ {
					gv := g[i*m+j]
					if a0 := a[i*k+p]; a0 != 0 {
						s0 += a0 * gv
					}
					if a1 := a[i*k+p+1]; a1 != 0 {
						s1 += a1 * gv
					}
				}
				b0[j], b1[j] = s0, s1
			}
		}
		if p < k { // odd k: the last row streams g's rows
			bgr := bgrad[p*m : (p+1)*m]
			for i := i0; i < i1; i++ {
				if av := a[i*k+p]; av != 0 {
					for j, gv := range g[i*m : (i+1)*m] {
						bgr[j] += av * gv
					}
				}
			}
		}
	}
}

// matmulDBColumn is matmulDBRows for a one-column G: dB[p] += Σ_i a[i,p]·g[i],
// ascending i per element, with the zero-skip. Four dB rows live in locals
// per pass, so each chunk of rows runs four independent chains on one load
// of g[i] and four adjacent a's, where the two-row tile ran two.
func matmulDBColumn(bgrad, a, g []float64, n, k int) {
	for i0 := 0; i0 < n; i0 += kernelBlockRows {
		i1 := min(i0+kernelBlockRows, n)
		p := 0
		for ; p+4 <= k; p += 4 {
			s0, s1, s2, s3 := bgrad[p], bgrad[p+1], bgrad[p+2], bgrad[p+3]
			for i := i0; i < i1; i++ {
				gv := g[i]
				ar := a[i*k+p : i*k+p+4 : i*k+p+4]
				if a0 := ar[0]; a0 != 0 {
					s0 += a0 * gv
				}
				if a1 := ar[1]; a1 != 0 {
					s1 += a1 * gv
				}
				if a2 := ar[2]; a2 != 0 {
					s2 += a2 * gv
				}
				if a3 := ar[3]; a3 != 0 {
					s3 += a3 * gv
				}
			}
			bgrad[p], bgrad[p+1], bgrad[p+2], bgrad[p+3] = s0, s1, s2, s3
		}
		for ; p < k; p++ {
			s := bgrad[p]
			for i := i0; i < i1; i++ {
				if av := a[i*k+p]; av != 0 {
					s += av * g[i]
				}
			}
			bgrad[p] = s
		}
	}
}
