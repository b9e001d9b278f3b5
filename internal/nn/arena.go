package nn

import "math"

// arena is a first-fit allocator over retained slabs: the storage of both
// the inference path's Scratch and the tracked path's Tape. Each slab keeps
// its own write offset, and a request is cut from the first slab whose
// remaining room fits it, so the tail a large request leaves behind still
// serves later, smaller ones. Only when no slab fits does the arena add one
// of a quarter of the capacity so far (at least the request): capacity
// tracks the high-water mark within a quarter instead of doubling past it,
// stops moving once the largest computations have been seen, and a
// record-size one costs a quarter of a re-allocation.
//
// Race builds poison every element not currently handed out (a fresh slab,
// and on reset what the finished computation used), so a kernel that reads
// its output before writing it shows up as a NaN in the golden digests.
type arena[T float64 | int] struct {
	slabs []slab[T]
}

// slab is one retained buffer and how much of it is handed out.
type slab[T float64 | int] struct {
	buf []T
	off int
}

// arenaMinSlab is the smallest slab an arena grows by, in elements.
const arenaMinSlab = 1 << 12

// alloc returns a length-n slice WITHOUT clearing it: for buffers the caller
// overwrites in full (kernel outputs).
func (a *arena[T]) alloc(n int) []T {
	for i := range a.slabs {
		s := &a.slabs[i]
		if off := s.off; off+n <= len(s.buf) {
			s.off += n
			return s.buf[off : off+n : off+n]
		}
	}
	buf := make([]T, max(n, a.cap()/4, arenaMinSlab))
	if poisonRecycled {
		poison(buf)
	}
	a.slabs = append(a.slabs, slab[T]{buf: buf, off: n})
	return buf[:n:n]
}

// reset recycles everything handed out; the slabs are retained.
func (a *arena[T]) reset() {
	for i := range a.slabs {
		s := &a.slabs[i]
		if poisonRecycled {
			poison(s.buf[:s.off])
		}
		s.off = 0
	}
}

func (a *arena[T]) cap() int {
	n := 0
	for _, s := range a.slabs {
		n += len(s.buf)
	}
	return n
}

// poison overwrites b with values no computation should read: NaN for
// floats, and for ints one that fails any index bounds check.
func poison[T float64 | int](b []T) {
	switch b := any(b).(type) {
	case []float64:
		for i := range b {
			b[i] = math.NaN()
		}
	case []int:
		for i := range b {
			b[i] = math.MinInt
		}
	}
}

// headerPool hands out *Tensor headers from fixed-size chunks that are never
// reallocated, so a handed-out pointer stays valid while later chunks are
// added. The caller overwrites the header it gets.
type headerPool struct {
	chunks [][]Tensor
	n      int // headers handed out since the last reset
}

// hdrChunk is the header pool's growth unit; one warm decision uses ≈100.
const hdrChunk = 64

func (h *headerPool) next() *Tensor {
	c := h.n / hdrChunk
	if c == len(h.chunks) {
		h.chunks = append(h.chunks, make([]Tensor, hdrChunk))
	}
	t := &h.chunks[c][h.n%hdrChunk]
	h.n++
	return t
}
