//go:build race

package kron

// raceEnabled reports a race-detector build. Under the race detector
// sync.Pool drops a random share of Put calls by design, so the pooled
// VecMul/MulVec forms may regrow their scratch on any call.
const raceEnabled = true
