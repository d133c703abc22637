package multigrid

import (
	"context"
	"testing"

	"cdrstoch/internal/obs"
	"cdrstoch/internal/obs/cost"
)

// TestSolveLevelStatsAndMeter pins the cost wiring: a metered solve
// attributes per-level work, cycles, residuals, pool kernel counts, and
// workspace bytes to the context's meter, and the Result carries the
// same per-level stats.
func TestSolveLevelStatsAndMeter(t *testing.T) {
	n := 64
	p := randomWalkChain(n, 0.3, 0.25)
	parts, err := BuildPairHierarchy(n, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	meter := cost.NewMeter()
	s, err := New(p, parts, Config{Tol: 1e-13, Ctx: obs.WithRun(context.Background(), &obs.Run{Meter: meter})})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}

	if len(res.LevelStats) != len(parts)+1 {
		t.Fatalf("LevelStats = %d levels, want %d", len(res.LevelStats), len(parts)+1)
	}
	if res.LevelStats[0].Size != n {
		t.Errorf("finest level size = %d, want %d", res.LevelStats[0].Size, n)
	}
	for i, ls := range res.LevelStats {
		if ls.Level != i {
			t.Errorf("level %d labeled %d", i, ls.Level)
		}
		// A V-cycle visits every level at least once per cycle.
		if ls.Visits < res.Cycles {
			t.Errorf("level %d visits = %d < cycles %d", i, ls.Visits, res.Cycles)
		}
		if ls.SmoothNS <= 0 {
			t.Errorf("level %d smooth time = %d", i, ls.SmoothNS)
		}
	}

	rep := meter.Finish()
	if rep.Cycles != int64(res.Cycles) {
		t.Errorf("meter cycles = %d, want %d", rep.Cycles, res.Cycles)
	}
	if len(rep.Levels) != len(res.LevelStats) {
		t.Errorf("meter levels = %d, want %d", len(rep.Levels), len(res.LevelStats))
	}
	if rep.FinalResidual <= 0 || rep.FinalResidual > 1e-13 {
		t.Errorf("meter final residual = %g", rep.FinalResidual)
	}
	if len(rep.ResidualTail) == 0 {
		t.Error("meter recorded no residual tail")
	}
	if rep.Pool.SpMVs == 0 && rep.Pool.RowSweeps == 0 {
		t.Errorf("meter pool counters empty: %+v", rep.Pool)
	}
	if rep.WorkspaceBytes <= 0 {
		t.Errorf("workspace bytes = %d", rep.WorkspaceBytes)
	}
}

// TestMeterSharedByTwoSolves pins the accounting of one solver solving
// twice under one meter — the sweep session's continuation fallback
// re-solves cold on the same solver and context. The workspace is the
// solver's, held once, not once per solve; the per-level visits and
// smoothing time add up across both solves, like the cycles do.
func TestMeterSharedByTwoSolves(t *testing.T) {
	n := 64
	p := randomWalkChain(n, 0.3, 0.25)
	parts, err := BuildPairHierarchy(n, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	meter := cost.NewMeter()
	s, err := New(p, parts, Config{Tol: 1e-13, Ctx: obs.WithRun(context.Background(), &obs.Run{Meter: meter})})
	if err != nil {
		t.Fatal(err)
	}
	var results [2]Result
	for i := range results {
		if results[i], err = s.Solve(nil); err != nil {
			t.Fatal(err)
		}
	}
	rep := meter.Finish()
	if want := s.workspaceBytes(); rep.WorkspaceBytes != want {
		t.Errorf("workspace bytes = %d, want the solver's %d", rep.WorkspaceBytes, want)
	}
	if want := int64(results[0].Cycles + results[1].Cycles); rep.Cycles != want {
		t.Errorf("cycles = %d, want %d", rep.Cycles, want)
	}
	if len(rep.Levels) != len(results[0].LevelStats) {
		t.Fatalf("meter levels = %d, want %d", len(rep.Levels), len(results[0].LevelStats))
	}
	for k, l := range rep.Levels {
		a, b := results[0].LevelStats[k], results[1].LevelStats[k]
		if l.Visits != a.Visits+b.Visits || l.SmoothNS != a.SmoothNS+b.SmoothNS || l.Size != a.Size {
			t.Errorf("level %d: meter %+v, solves %+v and %+v", k, l, a, b)
		}
	}
	// A V-cycle enters the finest level once per cycle.
	if rep.Levels[0].Visits != int(rep.Cycles) {
		t.Errorf("%d level-0 visits beside %d cycles", rep.Levels[0].Visits, rep.Cycles)
	}
}

// TestSolveUnmeteredNoLevelRegression checks the disabled path: no meter
// in the context still produces LevelStats on the result, and two solves
// from one solver reset the per-level tallies rather than accumulating.
func TestSolveUnmeteredNoLevelRegression(t *testing.T) {
	n := 32
	p := randomWalkChain(n, 0.4, 0.1)
	parts, _ := BuildPairHierarchy(n, 1, 2)
	s, err := New(p, parts, Config{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := s.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := s.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.LevelStats) == 0 || len(res2.LevelStats) == 0 {
		t.Fatal("unmetered solve lost LevelStats")
	}
	// Same problem, same start: the second solve must not report the
	// first solve's visits on top of its own.
	if res1.Cycles == res2.Cycles &&
		res1.LevelStats[0].Visits != res2.LevelStats[0].Visits {
		t.Errorf("visit tally leaked across solves: %d vs %d",
			res1.LevelStats[0].Visits, res2.LevelStats[0].Visits)
	}
}
