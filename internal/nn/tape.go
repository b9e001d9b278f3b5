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
// A Tape is owned by one goroutine at a time. Everything handed out is valid
// until the next Reset and is NOT cleared by it: whatever must outlive the
// replay — the loss value, per-step values, parameter gradients (which live
// on the parameters, not here) — is copied out first.
type Tape struct {
	f    arena[float64]
	i    arena[int]
	hdrs headerPool

	marks []bool // ScatterRows' row marks: all false between uses
}

// Reset recycles every buffer and header handed out since the last Reset.
func (tp *Tape) Reset() {
	tp.f.reset()
	tp.i.reset()
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

// wrap returns a rows×cols header over data, from the pool or the heap.
func (tp *Tape) wrap(rows, cols int, data []float64) *Tensor {
	if tp == nil {
		return New(rows, cols, data)
	}
	t := tp.hdrs.next()
	*t = Tensor{Rows: rows, Cols: cols, Data: data, tape: tp}
	return t
}

// rowMarks returns n row marks, all false; the caller leaves them all false.
func (tp *Tape) rowMarks(n int) []bool {
	if tp == nil {
		return make([]bool, n)
	}
	if len(tp.marks) < n {
		tp.marks = make([]bool, n)
	}
	return tp.marks[:n]
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
