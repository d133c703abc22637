package regime

import (
	"math"
	"testing"

	"cdrstoch/internal/dist"
	"cdrstoch/internal/spmat"
)

// referenceTPM is the explicit assembly Build performed before it
// composed core's terms, kept as an independent oracle: every (regime,
// data, counter, phase) state scatters each surviving (switch, PD) branch
// across the active regime's drift PMF.
func referenceTPM(t testing.TB, spec Spec) *spmat.CSR {
	t.Helper()
	base := spec.Base
	nr := len(spec.Regimes)
	nd, nc, nm, mid := base.Frame()
	g := int(base.CorrectionStep/base.GridStep + 0.5)
	l := base.CounterLen
	index := func(r, d, c, mi int) int { return ((r*nd+d)*nc+c)*nm + mi }
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
	n := nr * nd * nc * nm
	tr := spmat.NewTriplet(n, n)
	for r, reg := range spec.Regimes {
		drift := reg.Drift.Trim()
		branch := func(from, r2, d, c, mi, corr int, w float64) {
			drift.Support(func(_ float64, k int, pk float64) {
				mj := mi + corr + k
				if base.WrapPhase {
					mj = ((mj % nm) + nm) % nm
				} else {
					mj = min(max(mj, 0), nm-1)
				}
				tr.Add(from, index(r2, d, c, mj), w*pk)
			})
		}
		delta := base.PDDeadZone
		for d := 0; d < nd; d++ {
			pt := base.TransProb(d)
			for c := 0; c < nc; c++ {
				cLead, corrLead := step(c, +1)
				cLag, corrLag := step(c, -1)
				for mi := 0; mi < nm; mi++ {
					phi := float64(mi-mid) * base.GridStep
					pLead := dist.TailAbove(reg.EyeJitter, delta-phi)
					pLag := dist.TailBelow(reg.EyeJitter, -delta-phi)
					pNull := 0.0
					if delta > 0 {
						pNull = max(dist.TailBelow(reg.EyeJitter, delta-phi)-pLag, 0)
					}
					from := index(r, d, c, mi)
					for r2, ps := range spec.Switch[r] {
						if ps == 0 {
							continue
						}
						if w := ps * (1 - pt); w > 0 {
							branch(from, r2, base.NextDataState(d, false), c, mi, 0, w)
						}
						if pt > 0 {
							if w := ps * pt * pLead; w > 0 {
								branch(from, r2, 0, cLead, mi, corrLead, w)
							}
							if w := ps * pt * pLag; w > 0 {
								branch(from, r2, 0, cLag, mi, corrLag, w)
							}
							if w := ps * pt * pNull; w > 0 {
								branch(from, r2, 0, c, mi, 0, w)
							}
						}
					}
				}
			}
		}
	}
	return tr.ToCSR()
}

// TestBuildMatchesDirectAssembly: the composed terms reproduce the direct
// assembly's pattern exactly and its values to rounding, for two regimes
// with their own jitter and drift, saturating and wrapped, with and
// without a dead zone.
func TestBuildMatchesDirectAssembly(t *testing.T) {
	for _, wrap := range []bool{false, true} {
		for _, dz := range []float64{0, 0.07} {
			spec := burstSpec(t)
			spec.Base.WrapPhase = wrap
			spec.Base.PDDeadZone = dz
			spec.Regimes[1].Drift = mkDrift(t, spec.Base.GridStep, -spec.Base.GridStep/8)
			m, err := Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceTPM(t, spec)
			if !spmat.SamePattern(m.P, want) {
				t.Fatalf("wrap %v dead zone %g: pattern differs from the direct assembly", wrap, dz)
			}
			worst := 0.0
			for k, w := range want.RawValues() {
				worst = max(worst, math.Abs(m.P.RawValues()[k]-w))
			}
			t.Logf("wrap %v dead zone %g: %d entries, max |Δ| %.2e", wrap, dz, want.NNZ(), worst)
			if worst > 1e-15 {
				t.Errorf("wrap %v dead zone %g: values deviate by %.2e", wrap, dz, worst)
			}
		}
	}
}
