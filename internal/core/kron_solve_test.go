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

// WrapPhase shells tally the wrap-slip probabilities in the assembly loop
// without a triplet; WrapSlipRate must agree with the explicit build.
func TestBuildShellWrapSlipParity(t *testing.T) {
	spec := tinySpec(t)
	spec.WrapPhase = true
	full, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	shell, err := BuildShell(spec)
	if err != nil {
		t.Fatal(err)
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
		t.Fatalf("wrap slip: full (%g, %g) vs shell (%g, %g)", rf, mf, rs, ms)
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
