package spmat

import (
	"math/rand"
	"testing"
)

// packVecs builds k random vectors of length n.
func packVecs(rng *rand.Rand, k, n int) [][]float64 {
	vs := make([][]float64, k)
	for b := range vs {
		vs[b] = randomVec(rng, n)
	}
	return vs
}

// blockCounts crosses the register-blocking boundaries of mulVecsRange:
// below, at, and above mulVecsBlock, plus a multi-block tail.
func blockCounts() []int {
	return []int{1, 2, 3, mulVecsBlock - 1, mulVecsBlock, mulVecsBlock + 1, 2*mulVecsBlock + 3}
}

// TestPoolMulVecsBitIdentical is the differential test of the blocked
// SpMM: ys = A·xs over k packed vectors must be bit-identical to k serial
// MulVec calls at every worker count, every block-boundary k, and skewed
// shapes. Run under -race this also proves the dispatch race-clean —
// workers write disjoint row ranges of every output vector.
func TestPoolMulVecsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	defer forceParallel(t)()
	for _, shape := range [][2]int{{1, 1}, {3, 50}, {200, 200}, {613, 401}} {
		m := randomCSR(rng, shape[0], shape[1], 0.05)
		for _, k := range blockCounts() {
			xs := packVecs(rng, k, shape[1])
			want := make([][]float64, k)
			for b := range want {
				want[b] = make([]float64, shape[0])
				m.MulVec(want[b], xs[b])
			}
			for _, w := range workerCounts() {
				pool := NewPool(w)
				got := packVecs(rng, k, shape[0]) // junk contents: kernel must overwrite
				pool.MulVecs(m, got, xs)
				for b := range want {
					for i := range want[b] {
						if want[b][i] != got[b][i] {
							t.Fatalf("%dx%d k=%d workers=%d: ys[%d][%d] = %g, serial %g",
								shape[0], shape[1], k, w, b, i, got[b][i], want[b][i])
						}
					}
				}
				pool.Close()
			}
		}
	}
}

// TestPoolMulVecsNilAndEmpty covers the nil-pool fallback and the k = 0
// no-op.
func TestPoolMulVecsNilAndEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := randomCSR(rng, 60, 40, 0.1)
	xs := packVecs(rng, 3, 40)
	want := make([]float64, 60)
	var nilPool *Pool
	got := packVecs(rng, 3, 60)
	nilPool.MulVecs(m, got, xs)
	for b := range xs {
		m.MulVec(want, xs[b])
		for i := range want {
			if want[i] != got[b][i] {
				t.Fatalf("nil pool ys[%d][%d] differs", b, i)
			}
		}
	}
	nilPool.MulVecs(m, nil, nil) // k = 0: no-op
	p := NewPool(2)
	defer p.Close()
	p.MulVecs(m, nil, nil)
}

// TestPoolVecMulTMatchesVecMul checks that gathering over a caller-owned
// transpose is bit-identical to VecMul's cached-transpose path at every
// worker count (the two transposes have identical CSR layout, so the
// reductions are the same).
func TestPoolVecMulTMatchesVecMul(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	defer forceParallel(t)()
	m := randomCSR(rng, 300, 220, 0.05)
	tr := m.Transpose()
	x := randomVec(rng, 300)
	for _, w := range workerCounts() {
		pool := NewPool(w)
		want := make([]float64, 220)
		pool.VecMul(m, want, x)
		got := make([]float64, 220)
		pool.VecMulT(m, tr, got, x)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("workers=%d: y[%d] differs", w, i)
			}
		}
		pool.Close()
	}
}

// TestPoolMulVecsAllocFree pins the steady-state allocation count of the
// blocked kernel at zero: once the row bounds are warm, MulVecs may not
// allocate, at any block count — the accumulators are fixed-size stack
// arrays and the job struct is pooled. This is the alloc-scaling
// guarantee: cost per point of a sweep batch is kernel work only.
func TestPoolMulVecsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	defer forceParallel(t)()
	m := randomCSR(rng, 300, 300, 0.05)
	for _, k := range []int{1, 3, mulVecsBlock, 2*mulVecsBlock + 1} {
		xs := packVecs(rng, k, 300)
		ys := packVecs(rng, k, 300)
		pool := NewPool(2)
		// Warm the row bounds so steady-state is measured.
		pool.MulVecs(m, ys, xs)
		if n := testing.AllocsPerRun(50, func() { pool.MulVecs(m, ys, xs) }); n != 0 {
			t.Errorf("k=%d: MulVecs allocates %.1f per call", k, n)
		}
		pool.Close()
		serial := NewPool(1)
		if n := testing.AllocsPerRun(50, func() { serial.MulVecs(m, ys, xs) }); n != 0 {
			t.Errorf("k=%d: serial MulVecs allocates %.1f per call", k, n)
		}
		serial.Close()
	}
}

// TestPoolMulVecsStats checks the blocked kernel counts k SpMVs over
// k·nnz entries, matching what k serial dispatches would have recorded.
func TestPoolMulVecsStats(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	defer forceParallel(t)()
	m := randomCSR(rng, 200, 200, 0.05)
	k := 5
	xs := packVecs(rng, k, 200)
	ys := packVecs(rng, k, 200)
	pool := NewPool(2)
	defer pool.Close()
	before := pool.Stats()
	pool.MulVecs(m, ys, xs)
	d := pool.Stats().Sub(before)
	if d.SpMVs != int64(k) {
		t.Errorf("SpMVs = %d, want %d", d.SpMVs, k)
	}
	if d.NNZ != int64(k*m.NNZ()) {
		t.Errorf("NNZ = %d, want %d", d.NNZ, k*m.NNZ())
	}
}

// TestSamePattern covers equal patterns, value-only differences (still
// same pattern), and structural differences.
func TestSamePattern(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randomCSR(rng, 80, 90, 0.07)
	if !SamePattern(a, a) {
		t.Fatal("matrix does not match its own pattern")
	}
	b := a.Transpose().Transpose() // same pattern, fresh storage
	bv := b.RawValues()
	for i := range bv {
		bv[i] *= 2
	}
	if !SamePattern(a, b) {
		t.Fatal("value-only change reported as pattern change")
	}
	c := randomCSR(rng, 80, 90, 0.07)
	if SamePattern(a, c) {
		t.Fatal("different random patterns reported equal")
	}
	d := randomCSR(rng, 81, 90, 0.07)
	if SamePattern(a, d) {
		t.Fatal("different dimensions reported equal")
	}
	if !SamePattern(nil, nil) || SamePattern(a, nil) || SamePattern(nil, a) {
		t.Fatal("nil handling wrong")
	}
}
