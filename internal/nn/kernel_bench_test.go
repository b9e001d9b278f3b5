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
// matmul kernel alone (no autograd, no bias/activation), one thread.
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
				matmulRowsF64(out, a.Data, w.Data, sh.n, sh.k, sh.m)
			}
			reportGFLOPs(b, sh.n, sh.k, sh.m)
		})
	}
}

// BenchmarkKernelMatMulDB measures the dB = Aᵀ·G backward kernel alone, one
// thread, at the replay row count and the layer shapes of the stack's
// 24→32→16→1 and 8→32→16→8 networks and the heads' 8→1 output layer at
// the replay row count (k×m is the weight's shape).
func BenchmarkKernelMatMulDB(b *testing.B) {
	for _, sh := range []struct{ n, k, m int }{{8192, 32, 16}, {8192, 24, 32}, {8192, 16, 8}, {8192, 16, 1}, {replayLayerRows, 8, 1}} {
		b.Run(fmt.Sprintf("%dx%dx%d", sh.n, sh.k, sh.m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			a := randTensor(rng, sh.n, sh.k)
			g := randTensor(rng, sh.n, sh.m)
			db := make([]float64, sh.k*sh.m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matmulDBRows(db, a.Data, g.Data, sh.n, sh.k, sh.m)
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

// replayLayerShapes are the (k, m) weight shapes of the replay's layers with
// the default 16/8 hidden widths and D = 8: FNode/GNode/FGlob/GGlob/GJob
// (8→16, 16→8, 8→8), FJob's first layer (14 = F + D → 16), Q's first
// layer (24 = 3D → 16) and the heads' one-column output layer (8→1).
// replayLayerRows is a stacked replay's row count.
var replayLayerShapes = []struct{ k, m int }{{16, 8}, {8, 8}, {8, 16}, {14, 16}, {24, 16}, {8, 1}}

const replayLayerRows = 3000

// BenchmarkKernelLinear measures the fused layer kernel (matmul + bias +
// LeakyReLU, one thread) at the replay's layer shapes over normal inputs, so
// about half the pre-activations are negative: the sign is unpredictable,
// as in training.
func BenchmarkKernelLinear(b *testing.B) {
	for _, sh := range replayLayerShapes {
		b.Run(fmt.Sprintf("%dx%dx%d", replayLayerRows, sh.k, sh.m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			a := randTensor(rng, replayLayerRows, sh.k)
			w := randTensor(rng, sh.k, sh.m)
			bias := randTensor(rng, 1, sh.m)
			out := make([]float64, replayLayerRows*sh.m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				linearRowsF64(out, a.Data, w.Data, bias.Data, replayLayerRows, sh.k, sh.m, ActLeakyReLU)
			}
			reportGFLOPs(b, replayLayerRows, sh.k, sh.m)
		})
	}
}

// BenchmarkKernelMatMulDA measures the dA = G·Wᵀ backward kernel alone, one
// thread, at the replay's layer shapes.
func BenchmarkKernelMatMulDA(b *testing.B) {
	for _, sh := range replayLayerShapes {
		b.Run(fmt.Sprintf("%dx%dx%d", replayLayerRows, sh.k, sh.m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			g := randTensor(rng, replayLayerRows, sh.m)
			w := randTensor(rng, sh.k, sh.m)
			da := make([]float64, replayLayerRows*sh.k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matmulDARows(da, g.Data, w.Data, replayLayerRows, sh.k, sh.m)
			}
			reportGFLOPs(b, replayLayerRows, sh.k, sh.m)
		})
	}
}

// BenchmarkKernelActGrad measures the LeakyReLU derivative the layer
// backward applies to its output gradient, over a replay-sized output of
// either sign, in G elements per second.
func BenchmarkKernelActGrad(b *testing.B) {
	for _, m := range []int{8, 16} {
		b.Run(fmt.Sprintf("%dx%d", replayLayerRows, m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			out := randTensor(rng, replayLayerRows, m).Data
			g := make([]float64, len(out))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%256 == 0 { // 0.2^256 is still a normal float: no subnormal slow path
					for j := range g {
						g[j] = 1
					}
				}
				scaleByActGrad(g, out, ActLeakyReLU)
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(len(out))*float64(b.N)/sec/1e9, "Gelem/s")
			}
		})
	}
}
