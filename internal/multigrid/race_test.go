//go:build race

package multigrid

// raceEnabled reports a race-detector build. Under the race detector
// sync.Pool drops a random share of Put calls by design, so anything that
// formats an error (fmt's printer is pooled) allocates a varying amount.
const raceEnabled = true
