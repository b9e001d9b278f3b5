package nn

import (
	"math/rand"
	"testing"
)

// TestArenaFirstFit runs random allocation sequences — mostly small
// requests, some of a few thousand elements, a few larger than a minimum
// slab — across many resets and checks the arena's contract: every slice is
// exactly the length asked for and cap-clipped, no two slices handed out
// since the last reset share an element, each request is cut from the first
// slab with room for it (a tail a larger request could not use still serves
// a smaller one), and capacity stays within one growth slab of the largest
// sequence so far.
func TestArenaFirstFit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var a arena[int]
	largest, biggest := 0, 0 // the largest sequence and request so far
	tails := 0               // requests cut from before the last slab in use
	for seq := 0; seq < 60; seq++ {
		a.reset()
		var out [][]int
		total := 0
		used := make([]int, len(a.slabs)) // elements cut from each slab since the reset
		for k, steps := 0, 50+rng.Intn(400); k < steps; k++ {
			n := 1 + rng.Intn(64)
			switch r := rng.Intn(100); {
			case r < 2:
				n = arenaMinSlab + rng.Intn(4*arenaMinSlab)
			case r < 20:
				n = 1 + rng.Intn(3000)
			}
			// The first slab with room, or a new one past the last; within
			// a slab, requests are cut one after another.
			want := len(a.slabs)
			for i, s := range a.slabs {
				if len(s.buf)-used[i] >= n {
					want = i
					break
				}
			}
			b := a.alloc(n)
			if len(b) != n || cap(b) != n {
				t.Fatalf("sequence %d: alloc(%d) gave len %d cap %d", seq, n, len(b), cap(b))
			}
			if want == len(used) {
				used = append(used, 0)
			}
			if want >= len(a.slabs) || &a.slabs[want].buf[used[want]] != &b[0] {
				t.Fatalf("sequence %d: alloc(%d) not cut at offset %d of slab %d, the first of %d with room",
					seq, n, used[want], want, len(a.slabs))
			}
			for i := want + 1; i < len(used); i++ {
				if used[i] > 0 {
					tails++
					break
				}
			}
			used[want] += n
			for i := range b {
				b[i] = len(out)
			}
			out = append(out, b)
			total, biggest = total+n, max(biggest, n)
		}
		for id, b := range out {
			for _, v := range b {
				if v != id {
					t.Fatalf("sequence %d: slice %d overwritten by slice %d", seq, id, v)
				}
			}
		}
		largest = max(largest, total)
		if c, growth := a.cap(), max(biggest, a.cap()/4, arenaMinSlab); c > largest+growth {
			t.Fatalf("sequence %d: capacity %d for at most %d elements, over one growth slab (%d) of slack",
				seq, c, largest, growth)
		}
	}
	if tails == 0 {
		t.Fatal("no request landed before the last slab in use: the sequences do not exercise first fit")
	}
	t.Logf("%d requests filled an earlier slab's tail; %d slabs, capacity %d for a largest sequence of %d",
		tails, len(a.slabs), a.cap(), largest)
}
