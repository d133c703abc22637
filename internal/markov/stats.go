package markov

import (
	"errors"
	"fmt"
	"math"
)

// Statistics of functions defined on the chain's states under a stationary
// distribution — the quantities the paper derives once η is available:
// expectations and autocorrelation sequences (the paper names the
// autocorrelation of a state function as the canonical follow-on
// computation after η).

// Expectation returns Σ_i pi[i]·f[i].
func Expectation(pi, f []float64) (float64, error) {
	if len(pi) != len(f) {
		return 0, fmt.Errorf("markov: expectation length mismatch %d vs %d", len(pi), len(f))
	}
	s := 0.0
	for i, p := range pi {
		s += p * f[i]
	}
	return s, nil
}

// Autocovariance returns the stationary autocovariance sequence
// r(k) = E[f(X_0)f(X_k)] − E[f]² for k = 0..maxLag, computed with repeated
// sparse products f ← P·f (no matrix powers are formed).
func (c *Chain) Autocovariance(pi, f []float64, maxLag int) ([]float64, error) {
	if len(pi) != c.N() || len(f) != c.N() {
		return nil, errors.New("markov: autocovariance length mismatch")
	}
	if maxLag < 0 {
		return nil, errors.New("markov: negative lag")
	}
	mu, err := Expectation(pi, f)
	if err != nil {
		return nil, err
	}
	out := make([]float64, maxLag+1)
	fk := make([]float64, len(f))
	copy(fk, f)
	tmp := make([]float64, len(f))
	for k := 0; k <= maxLag; k++ {
		// E[f(X_0) f(X_k)] = Σ_i pi_i f_i (P^k f)_i
		s := 0.0
		for i, p := range pi {
			s += p * f[i] * fk[i]
		}
		out[k] = s - mu*mu
		if k < maxLag {
			c.op.MulVec(tmp, fk)
			fk, tmp = tmp, fk
		}
	}
	return out, nil
}

// Autocorrelation returns the autocovariance normalized by r(0); it is 1 at
// lag 0 by construction. An error is returned when f is degenerate
// (zero stationary variance).
func (c *Chain) Autocorrelation(pi, f []float64, maxLag int) ([]float64, error) {
	cov, err := c.Autocovariance(pi, f, maxLag)
	if err != nil {
		return nil, err
	}
	if cov[0] <= 0 {
		return nil, errors.New("markov: degenerate function, zero variance")
	}
	out := make([]float64, len(cov))
	for i, v := range cov {
		out[i] = v / cov[0]
	}
	return out, nil
}

// TotalVariation returns ½‖p − q‖₁, the total variation distance between
// two distributions of equal length.
func TotalVariation(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, errors.New("markov: TV length mismatch")
	}
	s := 0.0
	for i := range p {
		s += math.Abs(p[i] - q[i])
	}
	return s / 2, nil
}

// MixingTime returns the smallest k ≤ maxSteps with
// TV(x₀Pᵏ, pi) ≤ eps, or maxSteps+1 when not reached. It is used by tests
// and ablation benches to relate counter length to loop bandwidth.
func (c *Chain) MixingTime(x0, pi []float64, eps float64, maxSteps int) (int, error) {
	if len(x0) != c.N() || len(pi) != c.N() {
		return 0, errors.New("markov: mixing time length mismatch")
	}
	x := make([]float64, len(x0))
	copy(x, x0)
	y := make([]float64, len(x0))
	for k := 0; k <= maxSteps; k++ {
		tv, err := TotalVariation(x, pi)
		if err != nil {
			return 0, err
		}
		if tv <= eps {
			return k, nil
		}
		c.op.VecMul(y, x)
		x, y = y, x
	}
	return maxSteps + 1, nil
}
