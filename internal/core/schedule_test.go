package core

import (
	"math"
	"testing"

	"cdrstoch/internal/dist"
	"cdrstoch/internal/multigrid"
)

// fig5Spec is the Figure 5 panel configuration (σ = 0.09 UI eye jitter,
// 1/64-UI grid, skewed n_r with mean 2e−4 UI/bit) at the given counter
// length.
func fig5Spec(t testing.TB, counterLen int) Spec {
	t.Helper()
	s := DefaultSpec()
	drift, err := dist.DriftPMF(dist.DriftSpec{Step: s.GridStep, Max: 2 * s.GridStep, Mean: 0.0002, Shape: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	s.Drift = drift
	s.CounterLen = counterLen
	s.EyeJitter = dist.NewGaussian(0, 0.09)
	return s
}

// TestColdScheduleMatchesClassicWCycle checks the default cold schedule —
// W-cycles doubled on the phase-pair levels only — against the classic
// all-levels W(2,2) on a counter-16 Figure 5 model, whose hierarchy has
// four counter-merge levels below the phase pairs: the BER agrees to
// 1e−9 relative at no more than 2 % extra cycles, and the merge tail is
// visited as often as the deepest pair level.
func TestColdScheduleMatchesClassicWCycle(t *testing.T) {
	m, err := Build(fig5Spec(t, 16))
	if err != nil {
		t.Fatal(err)
	}
	classic, err := m.Solve(SolveOptions{Multigrid: multigrid.Config{Cycle: multigrid.WCycle, PreSmooth: 2, PostSmooth: 2}})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := m.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(cold.BER-classic.BER) / classic.BER
	t.Logf("cycles %d (classic %d), BER relative deviation %.2e", cold.Multigrid.Cycles, classic.Multigrid.Cycles, rel)
	if rel > 1e-9 {
		t.Errorf("BER %.12e vs classic %.12e: relative deviation %.2e", cold.BER, classic.BER, rel)
	}
	if float64(cold.Multigrid.Cycles) > 1.02*float64(classic.Multigrid.Cycles) {
		t.Errorf("cycles %d vs classic %d: more than +2 %%", cold.Multigrid.Cycles, classic.Multigrid.Cycles)
	}
	pairParts, err := multigrid.BuildPairHierarchy(m.M, m.D*m.C, 4)
	if err != nil {
		t.Fatal(err)
	}
	k := len(pairParts)
	stats := cold.Multigrid.LevelStats
	if len(stats) <= k+1 {
		t.Fatalf("%d levels, want a merge tail below %d pair levels", len(stats), k)
	}
	for j, ls := range stats {
		if want := cold.Multigrid.Cycles << min(j, k); ls.Visits != want {
			t.Errorf("level %d visits = %d, want %d", j, ls.Visits, want)
		}
	}
}
