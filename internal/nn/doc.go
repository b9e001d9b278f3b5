// Package nn is a small reverse-mode automatic-differentiation engine and
// neural-network toolkit built on dense float64 matrices. It provides the
// substrate Decima's graph neural network and policy network are built on:
// tensors, differentiable operations, layers, initialisers and optimizers.
//
// The engine is deliberately minimal: matrices are row-major, operations
// allocate fresh result tensors — from the Tape their operands live on, or
// the heap — and Backward walks the recorded computation graph in reverse
// topological order. Two exceptions keep copies off the tape: a layer can
// read its input as rows of other tensors where they live
// (MLP.ForwardRows), and AddRowsInPlace updates rows of a tensor in its own
// storage, the message-passing level update. Gradients accumulate into Tensor.Grad,
// so several Backward calls (e.g. one per REINFORCE step) can share one
// optimizer step. The leaves' and the root's gradients stay after Backward;
// an intermediate result built on a Tape hands its gradient back to the
// tape as soon as its own backward has consumed it, and its Grad is nil
// afterwards (heap intermediates keep theirs). A tape therefore holds a
// computation's layer outputs and other op results, no copied layer input,
// and a short gradient frontier.
//
// Package map:
//
//   - tensor.go — Tensor, the autograd graph and Backward
//   - ops.go — the differentiable operations (MatMul, gathers, segment sums, …)
//   - layers.go — Linear and MLP: one tracked node per layer, with initialisers
//   - rows.go — MLP.ForwardRows: a layer over row-gathered column blocks
//   - arena.go — the first-fit slab arena and header pool under Tape and Scratch
//   - tape.go — Tape, the arena that owns a tracked computation's tensors
//   - optim.go, params.go, serialize.go — Adam, parameter sets, model I/O
//   - nograd.go — no-grad inference mode and the Scratch arena
//   - fused.go — fused no-grad MLP forward (matmul + bias + activation)
//   - kernel.go — the raw-speed kernel layer: blocked, register-tiled
//     matmul kernels shared by the tracked and fused paths, each running on
//     its caller's goroutine. Bit-identical to the scalar kernels.
//   - batch.go — segmented episode-replay ops (SegmentPickLoss, …)
//
// The float64 path is the repository's bitwise reference; every fast path
// (no-grad mode, fused kernels, row chunks, batched replay) is
// bit-identical to it by test. docs/KERNELS.md documents the kernel layer,
// its equivalence contracts and its benchmark artifacts.
package nn
