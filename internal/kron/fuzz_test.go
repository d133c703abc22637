package kron

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzShuffleVecMul cross-checks the shuffle-algorithm products against
// the materialized matrix on randomly shaped descriptors: arbitrary
// factor counts, ragged sizes, signed and zero coefficients, variable
// density, the sparse factor supports of sparseSupportFactor and a random
// worker width. Any divergence between the implicit and the explicit
// evaluation beyond accumulation-order noise is a bug in the mode-product
// kernels; any bit that differs from the full-slab evaluation, serial or
// parallel, is a bug in the support restriction.
func FuzzShuffleVecMul(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(60), uint8(1))
	f.Add(int64(7), uint8(3), uint8(1), uint8(90), uint8(4))
	f.Add(int64(42), uint8(1), uint8(2), uint8(30), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nFactors, nTerms, density, workers uint8) {
		rng := rand.New(rand.NewSource(seed))
		nf := 1 + int(nFactors)%4
		nt := 1 + int(nTerms)%3
		dens := 0.2 + float64(density%100)/125
		sizes := make([]int, nf)
		dim := 1
		for c := range sizes {
			sizes[c] = 1 + rng.Intn(5)
			dim *= sizes[c]
		}
		d := sparseSupportDescriptor(t, sizes, nt, dens, rng)
		d.SetWorkers(1 + int(workers)%8)
		m := d.ToCSR()
		x := make([]float64, dim)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := make([]float64, dim)
		want := make([]float64, dim)
		scale := 0.0
		for _, v := range x {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		tol := 1e-12 * (1 + scale) * float64(dim)
		d.VecMul(got, x)
		m.VecMul(want, x)
		for i := range got {
			if math.Abs(got[i]-want[i]) > tol {
				t.Fatalf("VecMul[%d] = %g, want %g (sizes %v, %d terms)", i, got[i], want[i], sizes, nt)
			}
		}
		d.MulVec(got, x)
		m.MulVec(want, x)
		for i := range got {
			if math.Abs(got[i]-want[i]) > tol {
				t.Fatalf("MulVec[%d] = %g, want %g (sizes %v, %d terms)", i, got[i], want[i], sizes, nt)
			}
		}
		lowerParallelCutoff(t)
		checkFullSlabBits(t, d, x, "fuzz")
	})
}
