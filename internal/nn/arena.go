package nn

// arena is a bump allocator over retained slabs: the storage of both the
// inference path's Scratch and the tracked path's Tape. When a computation
// outgrows the slabs it adds one of a quarter of the capacity so far (at
// least the request): capacity tracks the high-water mark within a quarter
// instead of doubling past it, stops moving once the largest computations
// have been seen, and a record-size one costs a quarter of a re-allocation.
type arena[T any] struct {
	slabs [][]T
	slab  int // index of the slab alloc currently fills
	off   int // write offset into that slab
}

// arenaMinSlab is the smallest slab an arena grows by, in elements.
const arenaMinSlab = 1 << 12

// alloc returns a length-n slice WITHOUT clearing it: for buffers the caller
// overwrites in full (kernel outputs).
func (a *arena[T]) alloc(n int) []T {
	for {
		if a.slab < len(a.slabs) {
			sl := a.slabs[a.slab]
			if a.off+n <= len(sl) {
				b := sl[a.off : a.off+n : a.off+n]
				a.off += n
				return b
			}
			a.slab++
			a.off = 0
			continue
		}
		a.slabs = append(a.slabs, make([]T, max(n, a.cap()/4, arenaMinSlab)))
	}
}

// reset recycles everything handed out; the slabs are retained.
func (a *arena[T]) reset() { a.slab, a.off = 0, 0 }

func (a *arena[T]) cap() int {
	n := 0
	for _, sl := range a.slabs {
		n += len(sl)
	}
	return n
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
