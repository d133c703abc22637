//go:build !race

package multigrid

// raceEnabled reports a race-detector build; see race_test.go.
const raceEnabled = false
