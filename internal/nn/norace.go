//go:build !race

package nn

// poisonHandBack: see race.go.
const poisonHandBack = false
