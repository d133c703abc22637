package core

import (
	"errors"
	"math"
	"testing"

	"cdrstoch/internal/dist"
	"cdrstoch/internal/multigrid"
)

// TestSolveKronMatchesExplicit is the backend-parity gate: the matrix-free
// solve must reproduce the explicit multigrid solve — stationary vector,
// BER, and slip statistics — to 1e-12 on a seed model.
func TestSolveKronMatchesExplicit(t *testing.T) {
	m := buildTiny(t)
	explicit, err := m.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	implicit, err := m.SolveKron(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range explicit.Pi {
		if math.Abs(explicit.Pi[i]-implicit.Pi[i]) > 1e-12 {
			t.Fatalf("pi[%d]: explicit %g vs kron %g (diff %g)",
				i, explicit.Pi[i], implicit.Pi[i], explicit.Pi[i]-implicit.Pi[i])
		}
	}
	if math.Abs(explicit.BER-implicit.BER) > 1e-12 {
		t.Fatalf("BER: explicit %g vs kron %g", explicit.BER, implicit.BER)
	}
	se, err := m.SlipStats(explicit.Pi)
	if err != nil {
		t.Fatal(err)
	}
	shell, err := BuildShell(m.Spec)
	if err != nil {
		t.Fatal(err)
	}
	si, err := shell.SlipStats(implicit.Pi)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(se.Flux-si.Flux) > 1e-12 || math.Abs(se.TargetMass-si.TargetMass) > 1e-12 {
		t.Fatalf("slip: explicit %+v vs kron %+v", se, si)
	}
}

// A matrix-free shell never assembles the TPM but must reproduce every
// derived quantity the explicit model provides.
func TestBuildShellMatchesBuild(t *testing.T) {
	spec := tinySpec(t)
	full, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	shell, err := BuildShell(spec)
	if err != nil {
		t.Fatal(err)
	}
	if shell.P != nil {
		t.Fatal("shell assembled a TPM")
	}
	if shell.Desc == nil {
		t.Fatal("shell has no descriptor")
	}
	if shell.NumStates() != full.NumStates() || shell.LockedIndex() != full.LockedIndex() {
		t.Fatal("shell dimensions differ")
	}
	a, err := shell.SolveKron(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := full.SolveDirect()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if math.Abs(a.Pi[i]-ref[i]) > 1e-10 {
			t.Fatalf("pi[%d]: shell %g vs direct %g", i, a.Pi[i], ref[i])
		}
	}
	if _, err := shell.SolveDirect(); err == nil {
		t.Fatal("SolveDirect on a shell succeeded")
	}
	ch, err := shell.Chain()
	if err != nil {
		t.Fatal(err)
	}
	if ch.P() != nil {
		t.Fatal("shell chain exposes a CSR")
	}
	if shell.Describe() == "" {
		t.Fatal("empty description")
	}
}

// The measures that only multiply by P — frame error rate, phase
// autocorrelation and spectrum, acquisition time — run on a matrix-free
// shell through the descriptor's products, and must match the explicit
// model fed the same stationary vector.
func TestBuildShellMeasuresMatchBuild(t *testing.T) {
	small := DefaultSpec()
	small.CounterLen = 2
	for name, spec := range map[string]Spec{"default-c2": small, "fig5-c1": fig5Spec(t, 1)} {
		t.Run(name, func(t *testing.T) {
			full, err := Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			a, err := full.Solve(SolveOptions{})
			if err != nil {
				t.Fatal(err)
			}
			shell, err := BuildShell(spec)
			if err != nil {
				t.Fatal(err)
			}
			pi := a.Pi
			check := func(what string, got, want []float64, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				for i := range want {
					if math.Abs(got[i]-want[i]) > 1e-10*math.Abs(want[i]) {
						t.Errorf("%s[%d]: shell %g vs explicit %g", what, i, got[i], want[i])
					}
				}
			}
			measures := []struct {
				name string
				eval func(m *Model) ([]float64, error)
			}{
				{"frame error rate", func(m *Model) ([]float64, error) {
					fer, err := m.FrameErrorRate(pi, 1000)
					return []float64{fer}, err
				}},
				{"phase autocorrelation", func(m *Model) ([]float64, error) {
					return m.PhaseAutocorrelation(pi, 50)
				}},
				{"phase noise spectrum", func(m *Model) ([]float64, error) {
					return m.PhaseNoiseSpectrum(pi, 400, []float64{0.01, 0.05, 0.2, 0.5})
				}},
			}
			for _, ms := range measures {
				want, err := ms.eval(full)
				if err != nil {
					t.Fatalf("%s (explicit): %v", ms.name, err)
				}
				got, err := ms.eval(shell)
				check(ms.name, got, want, err)
			}
			want, err := full.AcquisitionTime(pi, 0.4, 0.05, 100000)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := shell.AcquisitionTime(pi, 0.4, 0.05, 100000); err != nil || got != want {
				t.Errorf("acquisition time: shell %d (%v) vs explicit %d", got, err, want)
			}
		})
	}
}

// WrapPhase models tally the wrap-slip probabilities from the phase
// factors' wrapped entries; the tally must match the direct per-branch
// one state by state, on the explicit model and the shell alike. With
// MaxRunLength 0 and a dead zone, the no-transition and NULL terms reach
// the same entries.
func TestBuildShellWrapSlipParity(t *testing.T) {
	base := tinySpec(t)
	base.WrapPhase = true
	noRunCap := base
	noRunCap.MaxRunLength = 0
	noRunCap.PDDeadZone = 0.05
	odd := base
	odd.TransitionDensity = 0.37 // not a power of two: products round
	odd.PDDeadZone = 0.03
	for name, spec := range map[string]Spec{"tiny": base, "no run cap, dead zone": noRunCap, "density 0.37": odd} {
		full, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		shell, err := BuildShell(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, want := referenceChain(t, spec)
		for i, w := range want {
			if math.Abs(full.wrapSlip[i]-w) > 1e-15 || math.Abs(shell.wrapSlip[i]-w) > 1e-15 {
				t.Fatalf("%s: state %d slip: full %g, shell %g, want %g", name, i, full.wrapSlip[i], shell.wrapSlip[i], w)
			}
		}
		pi, err := full.SolveDirect()
		if err != nil {
			t.Fatal(err)
		}
		rf, mf, err := full.WrapSlipRate(pi)
		if err != nil {
			t.Fatal(err)
		}
		rs, ms, err := shell.WrapSlipRate(pi)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rf-rs) > 1e-15 || math.Abs(mf-ms) > 1e-3*math.Abs(mf) {
			t.Fatalf("%s: wrap slip: full (%g, %g) vs shell (%g, %g)", name, rf, mf, rs, ms)
		}
	}
}

func TestSolveKronUnconverged(t *testing.T) {
	m := buildTiny(t)
	_, err := m.SolveKron(SolveOptions{Multigrid: multigrid.Config{MaxCycles: 1, Tol: 1e-15}})
	if err == nil {
		t.Fatal("1-cycle solve converged")
	}
	if !errors.Is(err, ErrUnconverged) {
		t.Fatalf("err = %v, want ErrUnconverged", err)
	}
}

// TestSolveKronInexactCoarseSolve checks the matrix-free solve on the
// counter-8 Figure 5 model: its BER matches the explicit solve's to 1e−9
// relative, and the coarse level is visited at most 1.5 times per outer
// cycle — the coarse chain is solved only as far as the next outer cycle
// can use, not to the tolerance on every visit.
func TestSolveKronInexactCoarseSolve(t *testing.T) {
	m, err := Build(fig5Spec(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := m.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	implicit, err := m.SolveKron(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(implicit.BER-explicit.BER) / explicit.BER
	cycles := implicit.Multigrid.Cycles
	visits := implicit.Multigrid.LevelStats[1].Visits
	t.Logf("kron %d cycles, %d coarse visits; BER relative deviation %.2e", cycles, visits, rel)
	if rel > 1e-9 {
		t.Errorf("BER %.12e vs explicit %.12e: relative deviation %.2e", implicit.BER, explicit.BER, rel)
	}
	if float64(visits) > 1.5*float64(cycles) {
		t.Errorf("%d coarse visits for %d outer cycles, want at most 1.5 per cycle", visits, cycles)
	}
}

// TestSolveKronTinyPhaseGrid covers phase grids already at or below
// MinSegLen: Model.Hierarchy has no phase-pair level to fold, so SolveKron
// forces one pairing of the 4-point wrap grid. At counter lengths 1 and 2
// the hierarchy is otherwise empty (at most three counter states); at 4 it
// has counter merges below the forced pairing. π must match the direct
// solve.
func TestSolveKronTinyPhaseGrid(t *testing.T) {
	h := 0.25
	drift, err := dist.DriftPMF(dist.DriftSpec{Step: h, Max: h, Mean: h / 8, Shape: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, counterLen := range []int{1, 2, 4} {
		spec := Spec{
			GridStep:          h,
			PhaseMax:          0.5,
			CorrectionStep:    h,
			TransitionDensity: 0.5,
			MaxRunLength:      2,
			EyeJitter:         dist.NewGaussian(0, 0.1),
			Drift:             drift,
			CounterLen:        counterLen,
			Threshold:         0.5,
			WrapPhase:         true,
		}
		m, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := m.Hierarchy(SolveOptions{}.withDefaults().MinSegLen)
		if err != nil {
			t.Fatal(err)
		}
		if m.M != 4 || (counterLen < 4) != (len(parts) == 0) {
			t.Fatalf("counter %d: M = %d, %d-level hierarchy", counterLen, m.M, len(parts))
		}
		a, err := m.SolveKron(SolveOptions{})
		if err != nil {
			t.Fatalf("counter %d: %v", counterLen, err)
		}
		ref, err := m.SolveDirect()
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for i := range ref {
			worst = max(worst, math.Abs(a.Pi[i]-ref[i]))
		}
		t.Logf("counter %d: %d cycles, levels %v, max |Δπ| %.2e", counterLen, a.Multigrid.Cycles, a.Multigrid.LevelSizes, worst)
		if worst > 1e-12 {
			t.Errorf("counter %d: π deviates from the direct solve by %.2e", counterLen, worst)
		}
	}
}
