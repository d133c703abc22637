package kron

import (
	"math"
	"math/rand"
	"testing"

	"cdrstoch/internal/spmat"
)

// fullSlabMul is the shuffle evaluation without support restriction: each
// term starts from a copy of x, every mode product runs over every slab of
// a cleared buffer, and every entry is accumulated into y. The restricted
// products must reproduce it bit for bit.
func fullSlabMul(d *Descriptor, vecMul bool, y, x []float64) {
	cur := make([]float64, d.dim)
	next := make([]float64, d.dim)
	clear(y)
	for _, t := range d.terms {
		if t.Coeff == 0 {
			continue
		}
		copy(cur, x)
		left, right := 1, d.dim
		for c, f := range t.Factors {
			n := d.sizes[c]
			right /= n
			clear(next)
			for l := 0; l < left; l++ {
				base := l * n * right
				for i := 0; i < n; i++ {
					cols, vals := f.Row(i)
					for kk, j := range cols {
						v := vals[kk]
						if v == 0 {
							continue
						}
						src, dst := base+i*right, base+j*right
						if !vecMul {
							src, dst = dst, src
						}
						for r := 0; r < right; r++ {
							next[dst+r] += v * cur[src+r]
						}
					}
				}
			}
			cur, next = next, cur
			left *= n
		}
		for i := range y {
			y[i] += t.Coeff * cur[i]
		}
	}
}

// sparseSupportFactor returns an n×n factor of the given shape. The
// sparse shapes are the ones the CDR descriptor produces, plus the
// degenerate ones the support scan must handle:
//
//	0: dense with the given density (every support usually full)
//	1: one-column reset, like A_d¹: every row jumps to one state
//	2: a single entry, like the counter overflow factor C⁺ₒᵥ
//	3: dense except one zero row and one zero column
//	4: a stored zero next to a single nonzero (stored zeros are no support)
func sparseSupportFactor(shape, n int, density float64, rng *rand.Rand) *spmat.CSR {
	tr := spmat.NewTriplet(n, n)
	switch shape {
	case 1:
		col := rng.Intn(n)
		for i := 0; i < n; i++ {
			tr.Add(i, col, rng.Float64()+0.1)
		}
	case 2:
		tr.Add(rng.Intn(n), rng.Intn(n), rng.NormFloat64())
	case 3:
		zr, zc := rng.Intn(n), rng.Intn(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != zr && j != zc {
					tr.Add(i, j, rng.NormFloat64())
				}
			}
		}
	case 4:
		tr.Add(rng.Intn(n), rng.Intn(n), 0)
		tr.Add(rng.Intn(n), rng.Intn(n), rng.NormFloat64())
	default:
		return randomCSR(n, n, density, rng)
	}
	return tr.ToCSR()
}

// sparseSupportDescriptor draws a descriptor whose factors mix every
// sparseSupportFactor shape, with an occasional zero-coefficient term.
func sparseSupportDescriptor(t testing.TB, sizes []int, nTerms int, density float64, rng *rand.Rand) *Descriptor {
	t.Helper()
	terms := make([]Term, nTerms)
	for ti := range terms {
		fs := make([]*spmat.CSR, len(sizes))
		for c, n := range sizes {
			fs[c] = sparseSupportFactor(rng.Intn(5), n, density, rng)
		}
		coeff := rng.NormFloat64()
		if rng.Intn(5) == 0 {
			coeff = 0
		}
		terms[ti] = Term{Coeff: coeff, Factors: fs}
	}
	d, err := NewDescriptor(terms)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// lowerParallelCutoff makes every shuffle product of a test descriptor
// eligible for the parallel split, and restores the cutoff afterwards.
func lowerParallelCutoff(t testing.TB) {
	old := spmat.ParallelCutoff
	spmat.ParallelCutoff = 0
	t.Cleanup(func() { spmat.ParallelCutoff = old })
}

// checkFullSlabBits compares both product directions of d, VecMul and
// MulVec, against fullSlabMul bit for bit.
func checkFullSlabBits(t testing.TB, d *Descriptor, x []float64, label string) {
	t.Helper()
	got := make([]float64, d.Dim())
	want := make([]float64, d.Dim())
	for _, vecMul := range []bool{true, false} {
		fullSlabMul(d, vecMul, want, x)
		if vecMul {
			d.VecMul(got, x)
		} else {
			d.MulVec(got, x)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s vecMul=%v: y[%d] = %v, full-slab %v (sizes %v)",
					label, vecMul, i, got[i], want[i], d.sizes)
			}
		}
	}
}

// TestShuffleMatchesFullSlab pins the support restriction: skipping the
// slabs that are structurally zero must not change a single bit of either
// product, serially or split across workers (the cutoff is lowered so the
// small descriptors take the parallel path too).
func TestShuffleMatchesFullSlab(t *testing.T) {
	lowerParallelCutoff(t)
	rng := rand.New(rand.NewSource(47))
	shapes := [][]int{{4, 5, 16}, {3, 7}, {1, 6, 1, 9}, {12}, {2, 3, 2, 5}}
	for trial := 0; trial < 40; trial++ {
		sizes := shapes[trial%len(shapes)]
		d := sparseSupportDescriptor(t, sizes, 1+rng.Intn(5), 0.5, rng)
		x := make([]float64, d.Dim())
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for _, w := range []int{1, 2, 7} {
			d.SetWorkers(w)
			checkFullSlabBits(t, d, x, "trial")
		}
	}
}

// TestOpsPerMulCountsActiveSlabs checks the work estimate: with every
// factor's support full it is the unrestricted Σ_t Σ_c nnz(F_c)·dim/n_c,
// and with sparse supports it counts only the slabs the product visits.
func TestOpsPerMulCountsActiveSlabs(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	full := []Term{
		{Coeff: 0.3, Factors: []*spmat.CSR{randomStochasticCSR(3, rng), spmat.Identity(4), randomStochasticCSR(5, rng)}},
		{Coeff: 0.7, Factors: []*spmat.CSR{randomStochasticCSR(3, rng), randomStochasticCSR(4, rng), spmat.Identity(5)}},
		{Coeff: 0, Factors: []*spmat.CSR{randomStochasticCSR(3, rng), randomStochasticCSR(4, rng), randomStochasticCSR(5, rng)}},
	}
	d, err := NewDescriptor(full)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, tm := range full {
		if tm.Coeff == 0 {
			continue
		}
		for c, f := range tm.Factors {
			want += int64(f.NNZ()) * int64(d.Dim()/d.sizes[c])
		}
	}
	if got := d.OpsPerMul(); got != want {
		t.Errorf("full support: OpsPerMul = %d, want %d", got, want)
	}

	// A_d¹-like reset ⊗ single entry ⊗ dense 5×5: mode 0 runs one slab of
	// stride 20 over 3 entries, mode 1 the reset column's slab of stride 5
	// over 1 entry, mode 2 the one reachable slab over 25 entries.
	reset := spmat.NewTriplet(3, 3)
	for i := 0; i < 3; i++ {
		reset.Add(i, 0, 1)
	}
	single := spmat.NewTriplet(4, 4)
	single.Add(1, 2, 1)
	sparse, err := NewDescriptor([]Term{{Coeff: 1, Factors: []*spmat.CSR{
		reset.ToCSR(), single.ToCSR(), randomStochasticCSR(5, rng),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sparse.OpsPerMul(), int64(3*20+1*5+25*1); got != want {
		t.Errorf("sparse support: OpsPerMul = %d, want %d", got, want)
	}
}
