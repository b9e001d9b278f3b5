package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

// The BenchmarkKernel* family measures raw matmul kernel throughput in
// GFLOP/s at the stack's real shapes, single-decision vs stacked
// (`go test -run '^$' -bench BenchmarkKernel ./internal/nn/`).
// docs/KERNELS.md explains how to read the numbers.

// kernelShapes are the matmul shapes that dominate the stack's flop budget:
// "decision" is one event's fused policy forward (a few dozen candidate
// rows), "replay" the batched episode replay (every decision of an episode
// stacked into one forward).
var kernelShapes = []struct {
	name    string
	n, k, m int
}{
	{"decision_64x32x16", 64, 32, 16},
	{"replay_8192x32x16", 8192, 32, 16},
}

func reportGFLOPs(b *testing.B, n, k, m int) {
	flops := 2 * float64(n) * float64(k) * float64(m) * float64(b.N)
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(flops/sec/1e9, "GFLOP/s")
	}
}

// BenchmarkKernelMatMulF64 measures the blocked register-tiled float64
// matmul kernel alone (no autograd, no bias/activation) at the default
// worker setting.
func BenchmarkKernelMatMulF64(b *testing.B) {
	for _, sh := range kernelShapes {
		b.Run(sh.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a := randTensor(rng, sh.n, sh.k)
			w := randTensor(rng, sh.k, sh.m)
			out := make([]float64, sh.n*sh.m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matmulF64(out, a.Data, w.Data, sh.n, sh.k, sh.m)
			}
			reportGFLOPs(b, sh.n, sh.k, sh.m)
		})
	}
}

// BenchmarkKernelMatMulDB measures the dB = Aᵀ·G backward kernel alone over
// the whole band [0, k), at the replay row count and the layer shapes of the
// stack's 24→32→16→1 and 8→32→16→8 networks (k×m is the weight's shape).
func BenchmarkKernelMatMulDB(b *testing.B) {
	for _, sh := range []struct{ n, k, m int }{{8192, 32, 16}, {8192, 24, 32}, {8192, 16, 8}, {8192, 16, 1}} {
		b.Run(fmt.Sprintf("%dx%dx%d", sh.n, sh.k, sh.m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			a := randTensor(rng, sh.n, sh.k)
			g := randTensor(rng, sh.n, sh.m)
			db := make([]float64, sh.k*sh.m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matmulDBRows(db, a.Data, g.Data, sh.n, sh.k, sh.m, 0, sh.k)
			}
			reportGFLOPs(b, sh.n, sh.k, sh.m)
		})
	}
}

// BenchmarkKernelMLPInference measures the full fused MLP forward (matmul +
// bias + activation per layer, arena-backed) at the decision and replay row
// counts — the end-to-end cost the serving and replay paths pay.
func BenchmarkKernelMLPInference(b *testing.B) {
	for _, rows := range []int{64, 8192} {
		b.Run(fmt.Sprintf("rows%d", rows), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			m := NewMLP([]int{24, 32, 16, 1}, ActLeakyReLU, rng)
			x := randTensor(rng, rows, 24)
			var s Scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Reset()
				m.ForwardInference(x, &s)
			}
			// One forward is three layers: 24→32→16→1.
			flops := 2 * float64(rows) * float64(24*32+32*16+16*1) * float64(b.N)
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(flops/sec/1e9, "GFLOP/s")
			}
		})
	}
}

// BenchmarkKernelMatMulWorkers sweeps the worker count at the replay shape —
// the scaling knob -matmul-workers exposes. On a single-CPU host all counts
// collapse to the serial path's throughput; on multicore the spread is the
// parallel speedup.
func BenchmarkKernelMatMulWorkers(b *testing.B) {
	defer SetMatMulWorkers(0)
	sh := kernelShapes[1] // replay
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			SetMatMulWorkers(workers)
			rng := rand.New(rand.NewSource(3))
			a := randTensor(rng, sh.n, sh.k)
			w := randTensor(rng, sh.k, sh.m)
			out := make([]float64, sh.n*sh.m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matmulF64(out, a.Data, w.Data, sh.n, sh.k, sh.m)
			}
			reportGFLOPs(b, sh.n, sh.k, sh.m)
		})
	}
}
