//go:build race

package nn

// poisonHandBack NaN-fills every gradient buffer Backward hands back to its
// tape, so the race run also catches a read after hand-back.
const poisonHandBack = true
