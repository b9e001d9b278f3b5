package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Tensor is a dense row-major matrix participating in the autograd graph.
// A Tensor created by an operation records its parents and a backward
// closure; leaf tensors (inputs and parameters) record neither.
type Tensor struct {
	// Rows and Cols give the matrix shape. A vector is 1×n or n×1.
	Rows, Cols int
	// Data holds the values in row-major order (len Rows*Cols).
	Data []float64
	// Grad accumulates d(loss)/d(this); allocated lazily on first use.
	Grad []float64

	requiresGrad bool
	parents      []*Tensor
	backFn       func()
	// tape owns Data, Grad and this header when the tensor was built on one
	// (tape.go); nil for heap tensors such as parameters.
	tape *Tape
	// visited tags the tensor with the id of the last graph walk that saw
	// it, replacing a per-Backward map allocation on the rollout hot path.
	// A tensor only ever participates in one goroutine's Backward at a time
	// (each rollout worker owns a private parameter clone), so plain writes
	// suffice; walk ids come from an atomic counter so concurrent walks
	// over disjoint graphs never share an id.
	visited uint64
}

// New returns a rows×cols tensor with the given backing data (not copied).
// It panics if the data length does not match the shape.
func New(rows, cols int, data []float64) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("nn: data length %d != %d×%d", len(data), rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: data}
}

// Zeros returns a rows×cols tensor of zeros.
func Zeros(rows, cols int) *Tensor {
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Vector returns a 1×n tensor wrapping the given values (not copied).
func Vector(v []float64) *Tensor { return New(1, len(v), v) }

// Param returns a rows×cols tensor initialised with Xavier/Glorot-uniform
// values and marked as requiring gradients. Parameters are the leaves the
// optimizer updates.
func Param(rows, cols int, rng *rand.Rand) *Tensor {
	t := Zeros(rows, cols)
	limit := math.Sqrt(6.0 / float64(rows+cols))
	for i := range t.Data {
		t.Data[i] = (rng.Float64()*2 - 1) * limit
	}
	t.requiresGrad = true
	return t
}

// ParamZero returns a zero-initialised parameter tensor (typical for biases).
func ParamZero(rows, cols int) *Tensor {
	t := Zeros(rows, cols)
	t.requiresGrad = true
	return t
}

// RequiresGrad reports whether the tensor participates in gradient flow,
// either because it is a parameter or because one of its ancestors is.
func (t *Tensor) RequiresGrad() bool { return t.requiresGrad }

// MarkParam marks t as a trainable leaf.
func (t *Tensor) MarkParam() { t.requiresGrad = true }

// At returns the element at (r, c).
func (t *Tensor) At(r, c int) float64 { return t.Data[r*t.Cols+c] }

// Set assigns the element at (r, c).
func (t *Tensor) Set(r, c int, v float64) { t.Data[r*t.Cols+c] = v }

// Value returns the single element of a 1×1 tensor and panics otherwise.
func (t *Tensor) Value() float64 {
	if t.Rows != 1 || t.Cols != 1 {
		panic(fmt.Sprintf("nn: Value on %d×%d tensor", t.Rows, t.Cols))
	}
	return t.Data[0]
}

// Clone returns a detached deep copy of the tensor's values.
func (t *Tensor) Clone() *Tensor {
	d := make([]float64, len(t.Data))
	copy(d, t.Data)
	return New(t.Rows, t.Cols, d)
}

// ensureGrad allocates the zeroed gradient buffer if needed, from the
// tensor's tape when it has one.
func (t *Tensor) ensureGrad() {
	if t.Grad == nil {
		t.Grad = t.tape.grad(len(t.Data))
	}
}

// ZeroGrad clears the accumulated gradient of this tensor.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// newResult builds an op-result tensor wired to its parents, its header
// drawn from tp like its data (nil: the heap). The backward closure is only
// retained if some parent requires gradients. In inference mode
// (nn.Inference) the result is a plain value tensor: no parents, no backward
// closure, no requiresGrad propagation.
func newResult(tp *Tape, rows, cols int, data []float64, back func(), parents ...*Tensor) *Tensor {
	t := tp.wrap(rows, cols, data)
	if nogradDepth.Load() > 0 {
		return t
	}
	for _, p := range parents {
		if p.requiresGrad {
			t.requiresGrad = true
		}
	}
	if t.requiresGrad {
		t.parents = parents
		t.backFn = back
	}
	return t
}

// Backward runs reverse-mode differentiation from t, which must be a 1×1
// scalar, seeding d(t)/d(t) = seed. Gradients accumulate into the Grad
// buffers of every tensor that requires gradients. An op result on a tape
// hands its gradient back to the tape once its own backward has run — reverse
// topological order means nothing adds to it afterwards — and its Grad is nil
// from then on; t and every leaf keep theirs, and heap graphs keep them all.
//
// The seed parameter lets callers weight a loss term without materialising
// the multiplication in the graph (REINFORCE uses the advantage here).
func (t *Tensor) Backward(seed float64) {
	if t.Rows != 1 || t.Cols != 1 {
		panic("nn: Backward requires a scalar output")
	}
	if !t.requiresGrad {
		return
	}
	w := walkPool.Get().(*walkScratch)
	order := topoSort(t, w)
	t.ensureGrad()
	t.Grad[0] += seed
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.backFn != nil {
			n.backFn()
			if n != t && n.tape != nil && n.Grad != nil { // nil: handed on to a parent
				n.tape.handBack(n.Grad)
				n.Grad = nil
			}
		}
	}
	// Recycle the walk buffers: REINFORCE calls Backward once per decision,
	// so these would otherwise be reallocated thousands of times per
	// training iteration.
	for i := range order {
		order[i] = nil
	}
	w.order = order[:0]
	walkPool.Put(w)
}

// walkGen issues a fresh id per graph walk for the Tensor.visited tags.
var walkGen atomic.Uint64

// walkScratch holds the reusable buffers of one graph walk.
type walkScratch struct {
	order []*Tensor
	stack []walkFrame
}

type walkFrame struct {
	t    *Tensor
	next int
}

var walkPool = sync.Pool{New: func() any { return &walkScratch{} }}

// topoSort collects the ancestors of root (including root) into w.order in
// topological order — parents always before children — and returns the
// filled slice. It reuses w's buffers across calls.
func topoSort(root *Tensor, w *walkScratch) []*Tensor {
	gen := walkGen.Add(1)
	order := w.order[:0]
	// Iterative DFS to avoid recursion depth limits on deep graphs
	// (message passing over long DAG chains builds deep graphs).
	stack := append(w.stack[:0], walkFrame{t: root})
	root.visited = gen
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.t.parents) {
			p := f.t.parents[f.next]
			f.next++
			if p.visited != gen && p.requiresGrad {
				p.visited = gen
				stack = append(stack, walkFrame{t: p})
			}
			continue
		}
		order = append(order, f.t)
		stack = stack[:len(stack)-1]
	}
	// Drop tensor references retained in the stack's spare capacity.
	spare := stack[:cap(stack)]
	for i := range spare {
		spare[i] = walkFrame{}
	}
	w.stack = stack[:0]
	w.order = order
	return order
}

// accumulate adds src into dst's gradient buffer element-wise.
func accumulate(dst *Tensor, src []float64) {
	dst.ensureGrad()
	for i, v := range src {
		dst.Grad[i] += v
	}
}
