package nn

import "sync/atomic"

// Inference mode is the engine's no-grad forward mode: while active, every
// operation skips backward-closure construction, requiresGrad propagation
// and gradient allocation, returning plain value tensors. It exists for the
// scheduling hot path — Decima invokes the GNN and policy network on every
// scheduling event, and during evaluation or serving no gradient is ever
// taken, so the autograd bookkeeping is pure overhead.
//
// The mode is tracked process-wide with an atomic depth counter, so nesting
// and concurrent inference goroutines (e.g. parallel evaluation workers,
// each with a private agent clone) are safe and race-clean. Running tracked
// (training) forwards concurrently with an active inference scope is not
// supported — nothing in this repository does so: training iterations and
// evaluation rollouts never overlap in time.
var nogradDepth atomic.Int64

// Inference runs fn with the no-grad forward mode active. Calls nest.
func Inference(fn func()) {
	nogradDepth.Add(1)
	defer nogradDepth.Add(-1)
	fn()
}

// WithNoGrad evaluates one tensor-producing expression in no-grad mode and
// returns its (untracked) result — the per-call variant of Inference.
func WithNoGrad(fn func() *Tensor) *Tensor {
	var out *Tensor
	Inference(func() { out = fn() })
	return out
}

// InInference reports whether the no-grad forward mode is active.
func InInference() bool { return nogradDepth.Load() > 0 }

// Scratch is a bump-allocation arena for inference-mode buffers. The
// scheduling hot path allocates dozens of short-lived matrices per decision;
// drawing them from a reusable arena (reset once per decision) removes that
// garbage entirely. A Scratch is owned by one goroutine at a time — each
// agent holds its own — and must not be shared concurrently.
//
// Buffers handed out by Alloc are valid until the next Reset; results that
// must outlive the decision (e.g. cached per-job embeddings) must be copied
// out.
type Scratch struct {
	slabs [][]float64
	slab  int // index of the slab Alloc currently fills
	off   int // write offset into that slab
}

// Alloc returns a zeroed length-n slice carved from the arena.
func (s *Scratch) Alloc(n int) []float64 {
	for {
		if s.slab < len(s.slabs) {
			sl := s.slabs[s.slab]
			if s.off+n <= len(sl) {
				b := sl[s.off : s.off+n : s.off+n]
				s.off += n
				for i := range b {
					b[i] = 0
				}
				return b
			}
			s.slab++
			s.off = 0
			continue
		}
		size := 1 << 12
		if len(s.slabs) > 0 {
			size = 2 * len(s.slabs[len(s.slabs)-1])
		}
		if size < n {
			size = n
		}
		s.slabs = append(s.slabs, make([]float64, size))
	}
}

// AllocTensor returns a zeroed rows×cols tensor backed by the arena.
func (s *Scratch) AllocTensor(rows, cols int) *Tensor {
	return New(rows, cols, s.Alloc(rows*cols))
}

// Reset recycles every buffer handed out since the last Reset. The slabs
// themselves are retained, so a warmed-up Scratch allocates nothing.
func (s *Scratch) Reset() { s.slab, s.off = 0, 0 }
