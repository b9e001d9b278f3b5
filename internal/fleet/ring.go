package fleet

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// DefaultVnodes is the number of ring points per replica when NewRing is
// given zero; the router's ring always uses it. More points smooth the key distribution; 64 keeps the
// placement spread within a few percent of even for small fleets while the
// whole ring stays a couple of KB.
const DefaultVnodes = 64

// Ring is a consistent-hash ring over replica ids. Each member owns vnodes
// pseudo-random points on a 64-bit circle; a key belongs to the member
// owning the first point at or after the key's hash. Adding a member moves
// only keys onto it, excluding one (OwnerWhere) moves only the keys it owned
// (bounded churn), and placement depends only on the member set, never on
// insertion order.
//
// Safe for concurrent use: lookups take a read lock, membership changes a
// write lock.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	points []ringPoint // sorted by hash
	member map[string]bool
}

type ringPoint struct {
	hash uint64
	id   string
}

// NewRing builds an empty ring with the given points per member (0 selects
// DefaultVnodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{vnodes: vnodes, member: make(map[string]bool)}
}

// ringHash is FNV-1a with a murmur-style avalanche finalizer. Raw FNV-1a
// lacks final mixing, so inputs differing only in trailing bytes ("r1#0"
// … "r1#63") land adjacent on the circle and the distribution collapses;
// the finalizer spreads every point uniformly.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add inserts a member. Adding an existing member is a no-op.
func (r *Ring) Add(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.member[id] {
		return
	}
	r.member[id] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: ringHash(id + "#" + strconv.Itoa(i)), id: id})
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
}

// Len reports the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.member)
}

// Owner returns the member owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	return r.OwnerWhere(key, nil)
}

// OwnerWhere returns the first member at or after key's ring position for
// which ok returns true — the key's owner when its preferred member is
// usable, otherwise the deterministic successor every client agrees on. A
// nil ok accepts every member. Returns "" when no member qualifies.
func (r *Ring) OwnerWhere(key string, ok func(id string) bool) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, len(r.member))
	for n := 0; n < len(r.points) && len(seen) < len(r.member); n++ {
		p := r.points[(start+n)%len(r.points)]
		if seen[p.id] {
			continue
		}
		seen[p.id] = true
		if ok == nil || ok(p.id) {
			return p.id
		}
	}
	return ""
}
