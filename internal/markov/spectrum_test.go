package markov

import (
	"math"
	"testing"
)

// lorentzian is the exact PSD of a process with geometric autocovariance
// r(k) = r0·λ^|k|:  S(ν) = r0·(1−λ²)/(1 − 2λcos(2πν) + λ²).
func lorentzian(r0, lambda, nu float64) float64 {
	c := math.Cos(2 * math.Pi * nu)
	return r0 * (1 - lambda*lambda) / (1 - 2*lambda*c + lambda*lambda)
}

func TestSpectralDensityTwoStateLorentzian(t *testing.T) {
	a, b := 0.3, 0.2
	c := twoState(t, a, b)
	pi := wantTwoState(a, b)
	f := []float64{0, 1}
	lambda := 1 - a - b
	cov, err := c.Autocovariance(pi, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	r0 := cov[0]
	freqs := []float64{0.05, 0.1, 0.25, 0.5}
	// Long maxLag: the Bartlett window bias vanishes as maxLag grows.
	psd, err := c.SpectralDensity(pi, f, 4000, freqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, nu := range freqs {
		want := lorentzian(r0, lambda, nu)
		if rel := math.Abs(psd[i]-want) / want; rel > 0.02 {
			t.Fatalf("S(%g) = %g, want %g (rel %g)", nu, psd[i], want, rel)
		}
	}
}

func TestSpectralDensityIIDFlat(t *testing.T) {
	// i.i.d. chain: PSD flat at r(0).
	c := chainFromRows(t, [][]float64{
		{0.4, 0.6},
		{0.4, 0.6},
	})
	pi := []float64{0.4, 0.6}
	f := []float64{-1, 1}
	cov, err := c.Autocovariance(pi, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	psd, err := c.SpectralDensity(pi, f, 100, []float64{0.1, 0.3, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range psd {
		if math.Abs(s-cov[0]) > 1e-10 {
			t.Fatalf("flat PSD broken at %d: %g vs %g", i, s, cov[0])
		}
	}
}

func TestSpectralDensityValidation(t *testing.T) {
	c := twoState(t, 0.3, 0.2)
	pi := wantTwoState(0.3, 0.2)
	f := []float64{0, 1}
	if _, err := c.SpectralDensity(pi, f, 0, []float64{0.1}); err == nil {
		t.Error("zero maxLag accepted")
	}
	if _, err := c.SpectralDensity(pi, f, 10, []float64{0}); err == nil {
		t.Error("zero frequency accepted")
	}
	if _, err := c.SpectralDensity(pi, f, 10, []float64{0.6}); err == nil {
		t.Error("super-Nyquist frequency accepted")
	}
}
