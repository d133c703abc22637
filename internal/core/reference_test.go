package core

import (
	"math"
	"testing"

	"cdrstoch/internal/spmat"
)

// referenceChain is the explicit assembly Build performed before the
// transition law moved into Terms, kept as an independent oracle. It
// walks every (data, counter, phase) state, scatters each surviving PD
// branch across the drift PMF into a triplet, and — for a WrapPhase
// spec — tallies branch by branch the mass whose phase jump wraps across
// the ±0.5 UI boundary.
func referenceChain(t testing.TB, s Spec) (p *spmat.CSR, wrapSlip []float64) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	nd, nc, nm, mid := s.Frame()
	g := int(s.CorrectionStep/s.GridStep + 0.5)
	drift := s.Drift.Trim()
	n := nd * nc * nm
	tr := spmat.NewTriplet(n, n)
	if s.WrapPhase {
		wrapSlip = make([]float64, n)
	}
	index := func(d, c, mi int) int { return (d*nc+c)*nm + mi }
	branch := func(from, d, c, mi, corr int, w float64) {
		drift.Support(func(_ float64, k int, pk float64) {
			mj := mi + corr + k
			if s.WrapPhase {
				if mj < 0 || mj >= nm {
					wrapSlip[from] += w * pk
					mj = ((mj % nm) + nm) % nm
				}
			} else {
				mj = min(max(mj, 0), nm-1)
			}
			tr.Add(from, index(d, c, mj), w*pk)
		})
	}
	// step moves the counter by dir and returns the correction in grid
	// steps: −G on overflow at +L, +G on underflow at −L.
	l := s.CounterLen
	step := func(c, dir int) (next, corr int) {
		switch v := c - (l - 1) + dir; {
		case v >= l:
			return l - 1, -g
		case v <= -l:
			return l - 1, +g
		default:
			return v + l - 1, 0
		}
	}
	for d := 0; d < nd; d++ {
		pt := s.TransProb(d)
		for c := 0; c < nc; c++ {
			cLead, corrLead := step(c, +1)
			cLag, corrLag := step(c, -1)
			for mi := 0; mi < nm; mi++ {
				from := index(d, c, mi)
				pLead, pLag, pNull := pdProbs(s, float64(mi-mid)*s.GridStep)
				if w := 1 - pt; w > 0 {
					branch(from, s.NextDataState(d, false), c, mi, 0, w)
				}
				if pt > 0 {
					if w := pt * pLead; w > 0 {
						branch(from, 0, cLead, mi, corrLead, w)
					}
					if w := pt * pLag; w > 0 {
						branch(from, 0, cLag, mi, corrLag, w)
					}
					if w := pt * pNull; w > 0 {
						branch(from, 0, c, mi, 0, w)
					}
				}
			}
		}
	}
	return tr.ToCSR(), wrapSlip
}

// assertSameMatrix fails unless got and want have the same dimensions
// and row patterns and their values agree to tol.
func assertSameMatrix(t *testing.T, got, want *spmat.CSR, tol float64) {
	t.Helper()
	n, _ := want.Dims()
	if r, c := got.Dims(); r != n || c != n {
		t.Fatalf("dims %dx%d, want %dx%d", r, c, n, n)
	}
	for i := 0; i < n; i++ {
		cols, vals := got.Row(i)
		wcols, wvals := want.Row(i)
		if len(cols) != len(wcols) {
			t.Fatalf("row %d: nnz %d, want %d", i, len(cols), len(wcols))
		}
		for k := range cols {
			if cols[k] != wcols[k] || math.Abs(vals[k]-wvals[k]) > tol {
				t.Fatalf("row %d entry %d: (%d, %g), want (%d, %g)", i, k, cols[k], vals[k], wcols[k], wvals[k])
			}
		}
	}
}
