package nn

// Tape is the arena of one tracked computation at a time: it owns the Data
// and (lazily created) Grad of every op result built from its tensors, the
// result headers, and the index and weight scratch the caller's plan needs —
// everything an episode replay would otherwise leave to the garbage
// collector. Reset recycles all of it at once, so a warm replay allocates
// nothing but its closures.
//
// A tensor enters through Zeros (or the scratch through Ints and Floats);
// every op result inherits the tape of its operands, so there is one set of
// ops and no tape argument on them. A nil *Tape is the heap: tensors that
// never met a tape (parameters, test inputs, the ledger's kernel probes)
// allocate exactly as they always did.
//
// Storage comes from the first-fit arena Scratch also uses (arena.go): a
// buffer is cut from the first slab with room for it, so a warm tape holds
// about what its largest replay used, plus at most one growth slab.
//
// Gradients are the exception to "until Reset": once an op result's own
// backward has consumed its gradient, Backward hands the buffer back (the
// field goes nil) and the next gradient that fits is cut from it, so a
// replay holds its values plus a short gradient frontier rather than a
// gradient for every value. The root and the leaves keep theirs.
//
// A Tape is owned by one goroutine at a time. Everything else handed out is
// valid until the next Reset and is NOT cleared by it (race builds NaN-fill
// it): whatever must outlive the replay — the loss value, per-step values,
// parameter gradients (which live on the parameters, not here) — is copied
// out first.
type Tape struct {
	f    arena[float64]
	i    arena[int]
	hdrs headerPool

	freed [][]float64 // gradients Backward handed back since the last Reset
}

// Reset recycles every buffer and header handed out since the last Reset.
func (tp *Tape) Reset() {
	tp.f.reset()
	tp.i.reset()
	tp.freed = tp.freed[:0]
	// Stale headers would pin the finished computation's closures.
	for c := 0; c*hdrChunk < tp.hdrs.n; c++ {
		clear(tp.hdrs.chunks[c])
	}
	tp.hdrs.n = 0
}

// Cap reports the tape's float64 capacity, which only ever grows.
func (tp *Tape) Cap() int { return tp.f.cap() }

// Zeros returns a zeroed rows×cols value tensor owned by the tape: the entry
// point for a computation's inputs.
func (tp *Tape) Zeros(rows, cols int) *Tensor {
	return tp.wrap(rows, cols, tp.zeros(rows*cols))
}

// Floats returns length-n scratch with unspecified contents.
func (tp *Tape) Floats(n int) []float64 { return tp.alloc(n) }

// Ints returns length-n scratch with unspecified contents.
func (tp *Tape) Ints(n int) []int {
	if tp == nil {
		return make([]int, n)
	}
	return tp.i.alloc(n)
}

// Tape returns the tape that owns t, nil for a heap tensor.
func (t *Tensor) Tape() *Tape { return t.tape }

// alloc returns an uncleared length-n buffer: for results a kernel
// overwrites in full.
func (tp *Tape) alloc(n int) []float64 {
	if tp == nil {
		return make([]float64, n)
	}
	return tp.f.alloc(n)
}

// zeros returns a cleared length-n buffer: for accumulators and gradients.
func (tp *Tape) zeros(n int) []float64 {
	if tp == nil {
		return make([]float64, n)
	}
	b := tp.f.alloc(n)
	clear(b)
	return b
}

// grad returns a cleared length-n gradient buffer: the smallest handed-back
// buffer that fits, else fresh storage.
func (tp *Tape) grad(n int) []float64 {
	if tp == nil {
		return make([]float64, n)
	}
	best := -1
	for i, b := range tp.freed {
		if cap(b) >= n && (best < 0 || cap(b) < cap(tp.freed[best])) {
			best = i
		}
	}
	if best < 0 {
		return tp.zeros(n)
	}
	b := tp.freed[best][:n]
	tp.freed[best] = tp.freed[len(tp.freed)-1]
	tp.freed = tp.freed[:len(tp.freed)-1]
	clear(b)
	return b
}

// handBack takes back a gradient buffer nothing will read again. Race builds
// poison it first, so a read after hand-back surfaces as a NaN.
func (tp *Tape) handBack(g []float64) {
	if poisonRecycled {
		poison(g[:cap(g)])
	}
	tp.freed = append(tp.freed, g)
}

// wrap returns a rows×cols header over data, from the pool or the heap. A
// gather view holds no values: its data is nil.
func (tp *Tape) wrap(rows, cols int, data []float64) *Tensor {
	if tp == nil {
		return &Tensor{Rows: rows, Cols: cols, Data: data}
	}
	t := tp.hdrs.next()
	*t = Tensor{Rows: rows, Cols: cols, Data: data, tape: tp}
	return t
}

// tapeOf returns the tape an op over the given operands allocates from: the
// first operand's that has one.
func tapeOf(ts ...*Tensor) *Tape {
	for _, t := range ts {
		if t.tape != nil {
			return t.tape
		}
	}
	return nil
}
