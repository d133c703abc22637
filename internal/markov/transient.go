package markov

import (
	"errors"
	"fmt"
)

// Transient analysis: finite-horizon distribution evolution and
// event-survival probabilities. The stationary analysis answers "what is
// the BER"; the transient analysis answers the framing questions around
// it — how fast the loop acquires lock from a given start, and how likely
// a whole frame (e.g. a SONET frame) survives without a single detection
// error, where the per-bit error probability depends on the loop state.

// Evolve returns the state distribution after the given number of steps
// from x0 (which is normalized internally).
func (c *Chain) Evolve(x0 []float64, steps int) ([]float64, error) {
	if len(x0) != c.N() {
		return nil, fmt.Errorf("markov: x0 length %d, want %d", len(x0), c.N())
	}
	if steps < 0 {
		return nil, errors.New("markov: negative step count")
	}
	x := make([]float64, len(x0))
	copy(x, x0)
	if err := normalize(x); err != nil {
		return nil, err
	}
	y := make([]float64, len(x))
	for k := 0; k < steps; k++ {
		c.op.VecMul(y, x)
		x, y = y, x
	}
	return x, nil
}

// ExpectedCumulative returns E[Σ_{k=0}^{steps−1} f(X_k)] from start x0 —
// e.g. the expected number of bit errors over a horizon when f is the
// per-state error probability.
func (c *Chain) ExpectedCumulative(x0, f []float64, steps int) (float64, error) {
	if len(x0) != c.N() || len(f) != c.N() {
		return 0, errors.New("markov: length mismatch")
	}
	if steps < 0 {
		return 0, errors.New("markov: negative step count")
	}
	x := make([]float64, len(x0))
	copy(x, x0)
	if err := normalize(x); err != nil {
		return 0, err
	}
	y := make([]float64, len(x))
	total := 0.0
	for k := 0; k < steps; k++ {
		for i, p := range x {
			total += p * f[i]
		}
		c.op.VecMul(y, x)
		x, y = y, x
	}
	return total, nil
}

// SurvivalProbability returns P(no event occurs during steps transitions)
// when the event fires at each step with state-dependent probability
// eventProb[state], independently given the state. The computation is
// exact: the defective distribution v_k = x ∘ (1−e) is propagated through
// P and its final mass is the survival probability. With eventProb set to
// the per-state bit-error probability this is the frame-survival (no
// errored bit) probability.
func (c *Chain) SurvivalProbability(x0, eventProb []float64, steps int) (float64, error) {
	n := c.N()
	if len(x0) != n || len(eventProb) != n {
		return 0, errors.New("markov: length mismatch")
	}
	if steps < 0 {
		return 0, errors.New("markov: negative step count")
	}
	for i, e := range eventProb {
		if e < 0 || e > 1 {
			return 0, fmt.Errorf("markov: eventProb[%d] = %g outside [0,1]", i, e)
		}
	}
	v := make([]float64, n)
	copy(v, x0)
	if err := normalize(v); err != nil {
		return 0, err
	}
	w := make([]float64, n)
	for k := 0; k < steps; k++ {
		for i := range v {
			v[i] *= 1 - eventProb[i]
		}
		c.op.VecMul(w, v)
		v, w = w, v
	}
	mass := 0.0
	for _, p := range v {
		mass += p
	}
	return mass, nil
}

// FrameErrorRate returns P(at least one event in a frame of frameLen
// steps) starting from x0 — the frame/packet loss rate implied by the
// per-state error probabilities.
func (c *Chain) FrameErrorRate(x0, eventProb []float64, frameLen int) (float64, error) {
	s, err := c.SurvivalProbability(x0, eventProb, frameLen)
	if err != nil {
		return 0, err
	}
	return 1 - s, nil
}
