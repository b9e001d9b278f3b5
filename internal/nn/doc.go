// Package nn is a small reverse-mode automatic-differentiation engine and
// neural-network toolkit built on dense float64 matrices. It provides the
// substrate Decima's graph neural network and policy network are built on:
// tensors, differentiable operations, layers, initialisers and optimizers.
//
// The engine is deliberately minimal: matrices are row-major, operations
// allocate fresh result tensors — from the Tape their operands live on, or
// the heap — and Backward walks the recorded computation graph in reverse
// topological order. Gradients accumulate into Tensor.Grad,
// so several Backward calls (e.g. one per REINFORCE step) can share one
// optimizer step.
//
// Package map:
//
//   - tensor.go — Tensor, the autograd graph and Backward
//   - ops.go — the differentiable operations (MatMul, gathers, segment sums, …)
//   - layers.go — Linear and MLP: one tracked node per layer, with initialisers
//   - tape.go — Tape, the arena that owns a tracked computation's tensors
//   - optim.go, params.go, serialize.go — SGD/Adam, parameter sets, model I/O
//   - nograd.go — no-grad inference mode and the Scratch bump arena
//   - fused.go — fused no-grad MLP forward (matmul + bias + activation)
//   - kernel.go — the raw-speed kernel layer: blocked, register-tiled
//     matmul kernels shared by the tracked and fused paths, plus the
//     pooled row-block parallelism (SetMatMulWorkers). Bit-identical to
//     the scalar kernels for any worker count.
//   - batch.go — segmented episode-replay ops (SegmentPickLoss, …)
//
// The float64 path is the repository's bitwise reference; every fast path
// (no-grad mode, fused kernels, parallel row blocks, batched replay) is
// bit-identical to it by test. docs/KERNELS.md documents the kernel layer,
// its equivalence contracts and its benchmark artifacts.
package nn
