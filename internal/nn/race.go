//go:build race

package nn

// poisonRecycled NaN-fills every buffer the tracked path recycles — each
// gradient Backward hands back to its tape, and ForwardRows' transient row
// scratch between uses — so the race run also catches a read after recycling.
const poisonRecycled = true
