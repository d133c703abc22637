package markov

import (
	"errors"
	"math"
)

// Spectral analysis of stationary functions on the chain. The paper names
// the autocorrelation of a function on the MC states as the canonical
// computation after the stationary vector; its Fourier transform is the
// power spectral density — for f = phase error, the recovered clock's
// phase-noise spectrum, the quantity clock specifications are written
// against.

// SpectralDensity evaluates the one-sided power spectral density of the
// stationary process f(X_k) at the given normalized frequencies
// (cycles/step, in (0, 0.5]):
//
//	S(ν) = r(0) + 2·Σ_{k=1..maxLag} w_k·r(k)·cos(2πνk)
//
// where r is the autocovariance and w_k a Bartlett (triangular) window
// that keeps the truncated estimate non-negative. maxLag bounds the
// matvec count; it should exceed the chain's correlation time.
func (c *Chain) SpectralDensity(pi, f []float64, maxLag int, freqs []float64) ([]float64, error) {
	if maxLag < 1 {
		return nil, errors.New("markov: maxLag must be positive")
	}
	for _, nu := range freqs {
		if nu <= 0 || nu > 0.5 {
			return nil, errors.New("markov: frequencies must lie in (0, 0.5]")
		}
	}
	cov, err := c.Autocovariance(pi, f, maxLag)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(freqs))
	for i, nu := range freqs {
		s := cov[0]
		for k := 1; k <= maxLag; k++ {
			w := 1 - float64(k)/float64(maxLag+1) // Bartlett window
			s += 2 * w * cov[k] * math.Cos(2*math.Pi*nu*float64(k))
		}
		if s < 0 {
			s = 0 // windowing guarantees ≥ 0 up to rounding
		}
		out[i] = s
	}
	return out, nil
}
