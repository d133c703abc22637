package multigrid_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"cdrstoch/internal/core"
	"cdrstoch/internal/experiments"
	"cdrstoch/internal/kron"
	"cdrstoch/internal/lump"
	"cdrstoch/internal/multigrid"
	"cdrstoch/internal/spmat"
)

// segmentCase is a descriptor with the partition chain its solves use.
type segmentCase struct {
	name  string
	d     *kron.Descriptor
	parts []*lump.Partition
}

// segmentCases covers the layouts the segment kernels must handle: Figure 5
// at counter 1 (the data factor maps segments onto themselves), at counters
// 2 and 8 (no transition stays inside its segment), at counter 8 with a PD
// dead zone (a sixth term keeps the counter), and the dense random mixture
// of the in-package tests, where every segment maps onto every other.
func segmentCases(t *testing.T) []segmentCase {
	t.Helper()
	var cases []segmentCase
	fig5 := func(name string, counter int, deadZone float64) {
		spec := experiments.Fig5Spec(counter)
		spec.PDDeadZone = deadZone
		m, err := core.BuildShell(spec)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := m.Hierarchy(4)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, segmentCase{name, m.Desc, parts})
	}
	fig5("fig5/counter1", 1, 0)
	fig5("fig5/counter2", 2, 0)
	fig5("fig5/counter8", 8, 0)
	fig5("fig5/counter8/deadzone", 8, 0.02)
	d := multigrid.KronTestDescriptor(t, 41, 16)
	parts, err := multigrid.BuildPairHierarchy(16, d.Dim()/16, 2)
	if err != nil {
		t.Fatal(err)
	}
	return append(cases, segmentCase{"kronTestDescriptor", d, parts})
}

// randomIterate returns a random distribution over n states whose first
// four states carry no mass, so the first aggregate of fold 1 and of fold
// 2 restricts with the uniform fallback weights.
func randomIterate(n int, rng *rand.Rand) []float64 {
	x := make([]float64, n)
	sum := 0.0
	for i := 4; i < n; i++ {
		x[i] = rng.Float64()
		sum += x[i]
	}
	for i := range x {
		x[i] /= sum
	}
	return x
}

// TestSegmentSweepMatchesPointGaussSeidel checks that one segment sweep of
// the implicit level is one point Gauss–Seidel sweep over the materialized
// TPM's transpose, up to rounding.
func TestSegmentSweepMatchesPointGaussSeidel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range segmentCases(t) {
		s, err := multigrid.NewKron(c.d, 1, c.parts, multigrid.Config{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		x := randomIterate(c.d.Dim(), rng)
		seg, point := slices.Clone(x), slices.Clone(x)
		s.SmoothFine(seg)
		s.PointSweep(c.d.ToCSR().T(), point)
		worst := 0.0
		for i := range seg {
			worst = max(worst, math.Abs(seg[i]-point[i]))
		}
		t.Logf("%s: max |Δx| %.2e", c.name, worst)
		if worst > 1e-15 {
			t.Errorf("%s: segment sweep deviates from point Gauss–Seidel by %.2e", c.name, worst)
		}
	}
}

// TestSegmentProductMatchesDescriptor checks the implicit level's
// product x·P, the per-cycle residual's, against the descriptor's shuffle
// product and against the materialized TPM, entry by entry to 2e−15
// relative. Each entry sums up to a few hundred non-negative products,
// and the three kernels sum them in different orders: over twelve random
// iterates the shuffle product and the materialized TPM already differ by
// up to 1.5e−15 on these cases.
func TestSegmentProductMatchesDescriptor(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, c := range segmentCases(t) {
		s, err := multigrid.NewKron(c.d, 1, c.parts, multigrid.Config{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		n := c.d.Dim()
		x := randomIterate(n, rng)
		got, shuffle, csr := make([]float64, n), make([]float64, n), make([]float64, n)
		s.MulFine(got, x)
		c.d.VecMul(shuffle, x)
		c.d.ToCSR().VecMul(csr, x)
		for _, ref := range []struct {
			name string
			y    []float64
		}{{"shuffle product", shuffle}, {"materialized TPM", csr}} {
			worst := 0.0
			for i, w := range ref.y {
				if g := got[i]; g != w {
					worst = max(worst, math.Abs(g-w)/max(math.Abs(g), math.Abs(w)))
				}
			}
			t.Logf("%s: max relative deviation from the %s %.2e", c.name, ref.name, worst)
			if worst > 2e-15 {
				t.Errorf("%s: product deviates from the %s by %.2e relative", c.name, ref.name, worst)
			}
		}
	}
}

// TestSegmentRestrictMatchesMaterializedRows checks the segment
// restriction against a row-by-row restriction over the rows of the
// materialized descriptor: the same level-1 pattern and, entry by entry,
// the same values to 1e−14 relative.
func TestSegmentRestrictMatchesMaterializedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, c := range segmentCases(t) {
		for fold := 1; fold <= 2; fold++ {
			s, err := multigrid.NewKron(c.d, fold, c.parts, multigrid.Config{})
			if err != nil {
				t.Fatalf("%s fold %d: %v", c.name, fold, err)
			}
			x := randomIterate(c.d.Dim(), rng)
			got := s.RestrictFine(x)
			want := rowRestrict(t, c.d, c.parts[:fold], x).Transpose()
			if !spmat.SamePattern(got, want) {
				t.Fatalf("%s fold %d: level-1 pattern differs from the row-by-row one", c.name, fold)
			}
			worst := 0.0
			for k, w := range want.RawValues() {
				if g := got.RawValues()[k]; g != w {
					worst = max(worst, math.Abs(g-w)/max(math.Abs(g), math.Abs(w)))
				}
			}
			t.Logf("%s fold %d: max relative deviation %.2e over %d entries", c.name, fold, worst, want.NNZ())
			if worst > 1e-14 {
				t.Errorf("%s fold %d: restriction deviates by %.2e relative", c.name, fold, worst)
			}
		}
	}
}

// TestSegmentRestrictTransposeBitIdentical checks that restricting
// straight into level 1's transpose, through destinations routed by its
// transpose permutation, writes the same bits as restricting into level
// 1's CSR matrix and refreshing the transpose from it.
func TestSegmentRestrictTransposeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range segmentCases(t) {
		for fold := 1; fold <= 2; fold++ {
			s, err := multigrid.NewKron(c.d, fold, c.parts, multigrid.Config{})
			if err != nil {
				t.Fatalf("%s fold %d: %v", c.name, fold, err)
			}
			x := randomIterate(c.d.Dim(), rng)
			got := s.RestrictFine(x)
			want, err := multigrid.RestrictFineRefreshed(c.d, c.parts[:fold], x)
			if err != nil {
				t.Fatalf("%s fold %d: %v", c.name, fold, err)
			}
			if !spmat.SamePattern(got, want) {
				t.Fatalf("%s fold %d: level-1 transpose pattern differs", c.name, fold)
			}
			for k, w := range want.RawValues() {
				if g := got.RawValues()[k]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s fold %d: level-1 transpose value %d = %v, refreshed %v", c.name, fold, k, g, w)
				}
			}
		}
	}
}

// rowRestrict is the restriction the segment kernels replaced, kept as
// the oracle: it builds level 1's pattern from the rows of the
// materialized descriptor, then adds each weighted fine entry into the
// coarse entry that EntryIndex finds.
func rowRestrict(t *testing.T, d *kron.Descriptor, fold []*lump.Partition, x []float64) *spmat.CSR {
	t.Helper()
	nc := fold[len(fold)-1].NumBlocks()
	blockOf := make([]int, d.Dim())
	count := make([]int, nc)
	for i := range blockOf {
		b := i
		for _, part := range fold {
			b = part.BlockOf(b)
		}
		blockOf[i] = b
		count[b]++
	}
	p := d.ToCSR()
	cols := make([][]int, nc)
	for i := range blockOf {
		I := blockOf[i]
		pcols, _ := p.Row(i)
		for _, j := range pcols {
			cols[I] = append(cols[I], blockOf[j])
		}
	}
	rowPtr := make([]int, nc+1)
	var colIdx []int
	for I, c := range cols {
		slices.Sort(c)
		colIdx = append(colIdx, slices.Compact(c)...)
		rowPtr[I+1] = len(colIdx)
	}
	pc, err := spmat.NewCSR(nc, nc, rowPtr, colIdx, make([]float64, len(colIdx)))
	if err != nil {
		t.Fatal(err)
	}
	mass := make([]float64, nc)
	for i, v := range x {
		mass[blockOf[i]] += v
	}
	vals := pc.RawValues()
	for i, v := range x {
		I := blockOf[i]
		w := 1 / float64(count[I])
		if mass[I] > 0 {
			w = v / mass[I]
		}
		if w == 0 {
			continue
		}
		pcols, pvals := p.Row(i)
		for k, j := range pcols {
			vals[pc.EntryIndex(I, blockOf[j])] += w * pvals[k]
		}
	}
	return pc
}
