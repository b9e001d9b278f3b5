package nn

// This file is the raw-speed matmul kernel layer: the register-tiled,
// cache-blocked inner loops of the tracked MatMul op (ops.go), plus the
// pooled goroutine parallelism — shared with the fused no-grad kernel
// (linearRowsF64, fused.go) — that kicks in for the tall stacked matrices the
// training replay produces.
// docs/KERNELS.md documents the scheme; BenchmarkKernel*
// (kernel_bench_test.go) measures it.
//
// Equivalence contract: every kernel partitions OUTPUT elements, never input
// reductions. A worker owns a block of output rows and computes each of its
// elements with contributions accumulated in exactly the scalar kernel's
// order (ascending inner index), so results are bit-identical to the
// single-threaded kernel for any worker count and any block size — the
// parallelism degree is a pure throughput knob, never an arithmetic one
// (TestMatMulBlockedBitIdentical). Register tiling (four output columns per
// pass here, eight in the fused kernel) changes which elements share a loop
// iteration, never the per-element accumulation order.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// matmulWorkersCfg is the configured kernel parallelism degree; 0 selects
// runtime.GOMAXPROCS(0) at call time.
var matmulWorkersCfg atomic.Int64

// SetMatMulWorkers sets the worker count the blocked kernels may spread row
// blocks over: 1 forces the single-threaded path, 0 (the default) tracks
// GOMAXPROCS. Results are bit-identical for every value — the
// -matmul-workers flag on the binaries is a throughput knob only. Small
// matrices stay on the single-threaded path regardless (kernelWorkers).
func SetMatMulWorkers(n int) {
	if n < 0 {
		n = 0
	}
	matmulWorkersCfg.Store(int64(n))
}

// MatMulWorkers reports the effective kernel worker count.
func MatMulWorkers() int {
	if n := int(matmulWorkersCfg.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Worker pool. Kernel tasks are tiny closures over disjoint output blocks;
// a fixed set of long-lived goroutines (one per CPU, started on first use)
// takes them from a channel so a training iteration's thousands of parallel
// matmuls do not each pay goroutine spawns. Saturation (nested parallel
// sections) falls back to ad-hoc goroutines — results are identical either
// way, only the scheduling differs.
var (
	kernelPoolOnce sync.Once
	kernelTasks    chan func()
)

func kernelSubmit(fn func()) {
	kernelPoolOnce.Do(func() {
		kernelTasks = make(chan func(), 4*runtime.GOMAXPROCS(0))
		for i := 0; i < runtime.GOMAXPROCS(0); i++ {
			go func() {
				for f := range kernelTasks {
					f()
				}
			}()
		}
	})
	select {
	case kernelTasks <- fn:
	default:
		go fn()
	}
}

// kernelBlockRows is the row-block work unit of the parallel kernels. It
// bounds a block's working set (kernelBlockRows·(k+m) float64s — ≲100 KiB at
// this repository's widest stacked shapes, comfortably L2-resident while the
// small k×m operand stays in L1) and is the granule workers claim from the
// block queue.
const kernelBlockRows = 128

// dbBlockRows is the row-block unit for the dB backward, whose output (k×m)
// has few rows; a smaller block keeps enough blocks to spread.
const dbBlockRows = 8

// minParallelFlops gates the pooled path: below ~64k multiply-adds the
// channel handoff and wakeups cost more than they save, so small forwards
// (single-decision shapes) stay single-threaded.
const minParallelFlops = 1 << 16

// kernelWorkers picks the parallelism degree for one kernel call producing
// rows output rows of blockRows-sized blocks at a total cost of flops
// multiply-adds. The choice depends only on shape, never on data.
func kernelWorkers(rows, blockRows, flops int) int {
	if rows < 2*blockRows || flops < minParallelFlops {
		return 1
	}
	return MatMulWorkers()
}

// forEachRowBlock invokes fn over blocks of [0, n): fn(lo, hi) with
// lo/hi multiples of blockRows (except the final hi = n). With one worker the
// whole range is a single call; with more, blocks are claimed from an atomic
// counter by workers-1 pool tasks plus the calling goroutine, which also
// works (a kernel call never merely waits). fn must touch only rows
// [lo, hi) of its output; blocks never overlap, so no synchronisation beyond
// the final barrier exists, and the race detector agrees.
func forEachRowBlock(n, blockRows, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	nBlocks := (n + blockRows - 1) / blockRows
	if workers > nBlocks {
		workers = nBlocks
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			b := int(next.Add(1)) - 1
			if b >= nBlocks {
				return
			}
			lo := b * blockRows
			hi := lo + blockRows
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for i := 1; i < workers; i++ {
		kernelSubmit(func() {
			defer wg.Done()
			work()
		})
	}
	work()
	wg.Wait()
}

// matmulF64 computes out = a·b for row-major a (n×k), b (k×m), spreading row
// blocks over the kernel pool when the shape warrants it. Bit-identical to
// the scalar kernel for any worker count. The single-worker case calls the
// row kernel directly — no closure, no allocation — so the per-decision hot
// path stays allocation-free.
func matmulF64(out, a, b []float64, n, k, m int) {
	workers := kernelWorkers(n, kernelBlockRows, n*k*m)
	if workers <= 1 {
		matmulRowsF64(out, a, b, k, m, 0, n)
		return
	}
	forEachRowBlock(n, kernelBlockRows, workers, func(lo, hi int) {
		matmulRowsF64(out, a, b, k, m, lo, hi)
	})
}

// matmulRowsF64 computes output rows [lo, hi) of a·b. Per output element the
// inner dimension accumulates in ascending p order — the scalar kernel's
// order — with four output columns register-tiled per pass so the inner loop
// carries no loads or stores of the output row. No zero-skip: the branchless
// loop stays in arithmetic lockstep with every other forward kernel (see
// BenchmarkMatMul for the measured trade-off).
func matmulRowsF64(out, a, b []float64, k, m, lo, hi int) {
	for i := lo; i < hi; i++ {
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

// matmulDARows accumulates rows [lo, hi) of dA += G·Bᵀ (the MatMul backward
// for the left operand): dA[i,p] += Σ_j g[i,j]·b[p,j], ascending j per
// element, four dA columns register-tiled per pass. Rows of dA are disjoint
// across blocks, so parallel workers race on nothing.
func matmulDARows(agrad, g, b []float64, k, m, lo, hi int) {
	for i := lo; i < hi; i++ {
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

// matmulDBRows accumulates rows [plo, phi) of dB += Aᵀ·G (the MatMul
// backward for the right operand): dB[p,j] += Σ_i a[i,p]·g[i,j], ascending i
// per element, starting from the value bgrad already holds. A tile of two dB
// rows × four columns lives in locals across the i loop, so the inner loop
// loads two a's and four g's for eight multiply-adds and stores nothing; the
// i range is walked in kernelBlockRows-row chunks so the a and g rows a
// chunk's (k/2)·(m/4) tiles re-read stay cache-resident. Tiling and chunking
// change which elements share a loop, never the order one element
// accumulates in, and a worker touches only its own band of bgrad, so any
// band split and worker count is bit-identical to the scalar kernel. The zero-skip stays, per
// a[i,p]: dA-side activations are often sparse (zero locality flags, ablated
// duration features) and a skipped i contributes nothing either way.
func matmulDBRows(bgrad, a, g []float64, n, k, m, plo, phi int) {
	for i0 := 0; i0 < n; i0 += kernelBlockRows {
		i1 := min(i0+kernelBlockRows, n)
		p := plo
		for ; p+2 <= phi; p += 2 {
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
		if p < phi { // odd band: the last row streams g's rows
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
