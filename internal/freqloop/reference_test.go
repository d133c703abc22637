package freqloop

import (
	"math"
	"slices"
	"testing"

	"cdrstoch/internal/dist"
	"cdrstoch/internal/spmat"
)

// referenceTPM is the explicit assembly Build performed before it
// composed core's terms, kept as an independent oracle: every (data,
// counter, register, phase) state of the full product scatters each
// surviving PD branch across the drift PMF, the phase jump carrying the
// register correction −f·q.
func referenceTPM(t testing.TB, spec Spec) *spmat.CSR {
	t.Helper()
	base := spec.Base
	nd, nc, nm, mid := base.Frame()
	nf := 2*spec.FreqLen + 1
	g := int(base.CorrectionStep/base.GridStep + 0.5)
	q := 0
	if spec.FreqLen > 0 {
		q = int(spec.FreqStep/base.GridStep + 0.5)
	}
	l := base.CounterLen
	index := func(d, c, f, mi int) int { return ((d*nc+c)*nf+f)*nm + mi }
	step := func(c, dir int) (next, ov int) {
		switch v := c - (l - 1) + dir; {
		case v >= l:
			return l - 1, +1
		case v <= -l:
			return l - 1, -1
		default:
			return v + l - 1, 0
		}
	}
	register := func(f, ov int) int { return min(max(f+ov, -spec.FreqLen), spec.FreqLen) + spec.FreqLen }
	drift := base.Drift.Trim()
	n := nd * nc * nf * nm
	tr := spmat.NewTriplet(n, n)
	branch := func(from, d, c, f, mi, shift int, w float64) {
		drift.Support(func(_ float64, k int, pk float64) {
			mj := mi + shift + k
			if base.WrapPhase {
				mj = ((mj % nm) + nm) % nm
			} else {
				mj = min(max(mj, 0), nm-1)
			}
			tr.Add(from, index(d, c, f, mj), w*pk)
		})
	}
	delta := base.PDDeadZone
	for d := 0; d < nd; d++ {
		pt := base.TransProb(d)
		for c := 0; c < nc; c++ {
			cLead, ovLead := step(c, +1)
			cLag, ovLag := step(c, -1)
			for f := 0; f < nf; f++ {
				fVal := f - spec.FreqLen
				fCorr := -fVal * q
				for mi := 0; mi < nm; mi++ {
					phi := float64(mi-mid) * base.GridStep
					pLead := dist.TailAbove(base.EyeJitter, delta-phi)
					pLag := dist.TailBelow(base.EyeJitter, -delta-phi)
					pNull := 0.0
					if delta > 0 {
						pNull = max(dist.TailBelow(base.EyeJitter, delta-phi)-pLag, 0)
					}
					from := index(d, c, f, mi)
					if w := 1 - pt; w > 0 {
						branch(from, base.NextDataState(d, false), c, f, mi, fCorr, w)
					}
					if pt > 0 {
						if w := pt * pLead; w > 0 {
							branch(from, 0, cLead, register(fVal, ovLead), mi, fCorr-ovLead*g, w)
						}
						if w := pt * pLag; w > 0 {
							branch(from, 0, cLag, register(fVal, ovLag), mi, fCorr-ovLag*g, w)
						}
						if w := pt * pNull; w > 0 {
							branch(from, 0, c, f, mi, fCorr, w)
						}
					}
				}
			}
		}
	}
	return tr.ToCSR()
}

// TestBuildMatchesDirectAssembly: the composed terms reproduce the direct
// assembly over the full product — pattern exactly, values to rounding —
// and so the same reachable class, for register ranges 0, 4 and 6,
// saturating and wrapped, with a dead zone.
func TestBuildMatchesDirectAssembly(t *testing.T) {
	for _, fl := range []int{0, 4, 6} {
		for _, wrap := range []bool{false, true} {
			base := strongDriftBase(t)
			base.WrapPhase = wrap
			base.PDDeadZone = 0.07
			spec := Spec{Base: base, FreqLen: fl, FreqStep: base.GridStep}
			m, err := Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			full := referenceTPM(t, spec)
			locked := m.productIndex(0, base.CounterLen-1, fl, m.mid)
			if want := bfsReachable(full, locked); !slices.Equal(m.States, want) {
				t.Fatalf("F %d wrap %v: %d reachable states, want %d", fl, wrap, len(m.States), len(want))
			}
			worst := 0.0
			for k, s := range m.States {
				cols, vals := m.P.Row(k)
				wcols, wvals := full.Row(s)
				if len(cols) != len(wcols) {
					t.Fatalf("F %d wrap %v: state %d: nnz %d, want %d", fl, wrap, s, len(cols), len(wcols))
				}
				for kk, j := range cols {
					if m.States[j] != wcols[kk] {
						t.Fatalf("F %d wrap %v: state %d: column %d, want %d", fl, wrap, s, m.States[j], wcols[kk])
					}
					worst = max(worst, math.Abs(vals[kk]-wvals[kk]))
				}
			}
			t.Logf("F %d wrap %v: %d states, max |Δ| %.2e", fl, wrap, len(m.States), worst)
			if worst > 1e-15 {
				t.Errorf("F %d wrap %v: values deviate by %.2e", fl, wrap, worst)
			}
		}
	}
}
