package nn

import (
	"fmt"
	"sync/atomic"
)

// Inference mode is the engine's no-grad forward mode: while active, every
// tracked operation skips backward-closure construction, requiresGrad
// propagation and gradient allocation, returning plain value tensors.
//
// No production code enters it: the scheduling hot path does not run tracked
// ops at all (it runs the fused ForwardInference kernels over a Scratch), and
// the only tracked computation left — the training replay — wants its
// gradients. The mode is process-wide (an atomic depth counter), so a scope
// opened on one goroutine silently detaches a tracked computation running on
// another, e.g. online.Trainer's background update. It stays exported for the
// ledger's kernel probes (bench/ladder.go), which time MatMul and MLP.Forward
// without the tape; see docs/RENT.md.
var nogradDepth atomic.Int64

// Inference runs fn with the no-grad forward mode active. Calls nest.
func Inference(fn func()) {
	nogradDepth.Add(1)
	defer nogradDepth.Add(-1)
	fn()
}

// Scratch is a first-fit arena (arena.go) for inference-mode buffers and the
// tensor headers that wrap them. The scheduling hot path creates dozens of
// short-lived matrices per decision; drawing both the float64 storage and the
// *Tensor headers from a reusable arena (reset once per decision) removes
// that garbage entirely. A Scratch is owned by one goroutine at a time — each
// agent holds its own — and must not be shared concurrently.
//
// Buffers and tensors handed out are valid until the next Reset (race builds
// NaN-fill the buffers then); results that must outlive the decision (e.g.
// cached per-job embeddings) must be copied out.
type Scratch struct {
	f    arena[float64]
	hdrs headerPool
}

// alloc returns a length-n slice carved from the arena WITHOUT clearing it:
// for buffers the caller overwrites in full (kernel outputs).
func (s *Scratch) alloc(n int) []float64 { return s.f.alloc(n) }

// Alloc returns a zeroed length-n slice carved from the arena.
func (s *Scratch) Alloc(n int) []float64 {
	b := s.alloc(n)
	clear(b)
	return b
}

// wrap returns an arena-owned rows×cols tensor header over data (not
// copied), recycled by Reset like the buffers themselves. A scratch header
// never carries a gradient, parents, a closure or a tape — those fields stay
// zero from the chunk's allocation — so only the shape and data are stored,
// not the whole header.
func (s *Scratch) wrap(rows, cols int, data []float64) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("nn: data length %d != %d×%d", len(data), rows, cols))
	}
	t := s.hdrs.next()
	t.Rows, t.Cols, t.Data = rows, cols, data
	return t
}

// AllocTensor returns a zeroed rows×cols tensor owned by the arena.
func (s *Scratch) AllocTensor(rows, cols int) *Tensor {
	return s.wrap(rows, cols, s.Alloc(rows*cols))
}

// Reset recycles every buffer and header handed out since the last Reset.
// The slabs and header chunks themselves are retained, so a warmed-up
// Scratch allocates nothing.
func (s *Scratch) Reset() {
	s.f.reset()
	s.hdrs.n = 0
}
