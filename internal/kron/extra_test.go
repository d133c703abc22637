package kron

import (
	"math"
	"math/rand"
	"testing"

	"cdrstoch/internal/spmat"
)

func TestZeroCoefficientTermSkipped(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	a := randomStochasticCSR(3, rng)
	b := randomStochasticCSR(3, rng)
	with, err := NewDescriptor([]Term{
		{Coeff: 1, Factors: []*spmat.CSR{a}},
		{Coeff: 0, Factors: []*spmat.CSR{b}},
	})
	if err != nil {
		t.Fatal(err)
	}
	without, err := NewDescriptor([]Term{{Coeff: 1, Factors: []*spmat.CSR{a}}})
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.2, 0.3, 0.5}
	y1 := make([]float64, 3)
	y2 := make([]float64, 3)
	with.VecMul(y1, x)
	without.VecMul(y2, x)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("zero-coeff term contributed at %d", i)
		}
	}
	m1 := with.ToCSR()
	m2 := without.ToCSR()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if m1.At(i, j) != m2.At(i, j) {
				t.Fatalf("materialized mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestThreeFactorDescriptor(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	a := randomStochasticCSR(2, rng)
	b := randomStochasticCSR(3, rng)
	c := randomStochasticCSR(2, rng)
	d, err := NewDescriptor([]Term{{Coeff: 1, Factors: []*spmat.CSR{a, b, c}}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Dim() != 12 {
		t.Fatalf("dim = %d", d.Dim())
	}
	explicit := Kron(Kron(a, b), c)
	x := make([]float64, 12)
	for i := range x {
		x[i] = rng.Float64()
	}
	y1 := make([]float64, 12)
	y2 := make([]float64, 12)
	d.VecMul(y1, x)
	explicit.VecMul(y2, x)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-12 {
			t.Fatalf("three-factor mismatch at %d: %g vs %g", i, y1[i], y2[i])
		}
	}
	// The product of stochastic factors stays stochastic.
	if err := d.ToCSR().CheckStochastic(1e-12); err != nil {
		t.Fatal(err)
	}
}
