package passage_test

import (
	"math"
	"testing"

	"cdrstoch/internal/core"
	"cdrstoch/internal/experiments"
	"cdrstoch/internal/passage"
	"cdrstoch/internal/spmat"
)

// rowLoopFlux is the reference the one SlipFlux replaced on the explicit
// backend: a loop over the CSR rows of the states outside the target that
// carry stationary mass, summing each row's entries into the target.
func rowLoopFlux(p *spmat.CSR, pi []float64, target []bool) passage.FluxResult {
	var res passage.FluxResult
	for i := range pi {
		if target[i] {
			res.TargetMass += pi[i]
			continue
		}
		res.OutsideMass += pi[i]
		if pi[i] == 0 {
			continue
		}
		cols, vals := p.Row(i)
		rowFlux := 0.0
		for k, j := range cols {
			if target[j] {
				rowFlux += vals[k]
			}
		}
		res.Flux += pi[i] * rowFlux
	}
	return res
}

// TestSlipFluxMatchesRowLoop pins SlipFlux, one column action on the
// target's indicator, against the row loop: bit for bit on the explicit
// matrix (the products with 0 it adds and the π_i = 0 rows it no longer
// skips change no bit), and to rounding on the matrix-free descriptor,
// whose shuffle product sums the same entries in another order. Both
// backends are reached through core.Model.SlipStats, on the Figure 4 and
// Figure 5 presets, with the stationary vector and with a copy in which
// every fifth entry is zero.
func TestSlipFluxMatchesRowLoop(t *testing.T) {
	presets := map[string]core.Spec{
		"fig4-low":  experiments.Fig4Spec(false),
		"fig4-high": experiments.Fig4Spec(true),
		"fig5":      experiments.Fig5Spec(8),
	}
	for name, spec := range presets {
		m, err := core.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		shell, err := core.BuildShell(spec)
		if err != nil {
			t.Fatal(err)
		}
		an, err := m.Solve(core.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sparse := append([]float64(nil), an.Pi...)
		for i := 0; i < len(sparse); i += 5 {
			sparse[i] = 0
		}
		for _, pi := range [][]float64{an.Pi, sparse} {
			want := rowLoopFlux(m.P, pi, m.SlipSet())
			if want.Flux <= 0 || want.TargetMass <= 0 {
				t.Fatalf("%s: degenerate reference %+v", name, want)
			}
			got, err := m.SlipStats(pi)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []struct {
				what      string
				got, want float64
			}{
				{"flux", got.Flux, want.Flux},
				{"outside mass", got.OutsideMass, want.OutsideMass},
				{"target mass", got.TargetMass, want.TargetMass},
			} {
				if math.Float64bits(q.got) != math.Float64bits(q.want) {
					t.Errorf("%s explicit %s = %v, row loop %v", name, q.what, q.got, q.want)
				}
			}
			kr, err := shell.SlipStats(pi)
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(kr.Flux-want.Flux) / want.Flux; rel > 1e-12 {
				t.Errorf("%s matrix-free flux = %v, row loop %v (rel %.2g)", name, kr.Flux, want.Flux, rel)
			}
			if kr.OutsideMass != want.OutsideMass || kr.TargetMass != want.TargetMass {
				t.Errorf("%s matrix-free masses = %v/%v, row loop %v/%v", name,
					kr.OutsideMass, kr.TargetMass, want.OutsideMass, want.TargetMass)
			}
		}
	}
}
