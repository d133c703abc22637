package core

import (
	"errors"
	"math"
	"testing"

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
