//go:build race

package nn

// poisonRecycled NaN-fills every buffer the nn package recycles — what a
// Tape or Scratch handed out, at Reset, and a fresh arena slab; each gradient
// Backward hands back to its tape; ForwardRows' transient row scratch
// between uses — so the race run also catches a read after recycling and a
// kernel that reads its output before writing it.
const poisonRecycled = true
