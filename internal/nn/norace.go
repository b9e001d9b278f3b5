//go:build !race

package nn

// poisonRecycled: see race.go.
const poisonRecycled = false
