//go:build !race

package kron

// raceEnabled reports a race-detector build; see race_test.go.
const raceEnabled = false
