package multigrid

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"cdrstoch/internal/kron"
	"cdrstoch/internal/obs/cost"
	"cdrstoch/internal/spmat"
)

func randomStochasticFactor(n int, rng *rand.Rand) *spmat.CSR {
	tr := spmat.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		s := 0.0
		for j := range row {
			row[j] = rng.Float64() + 1e-3
			s += row[j]
		}
		for j := range row {
			tr.Add(i, j, row[j]/s)
		}
	}
	return tr.ToCSR()
}

// kronTestDescriptor builds a two-term stochastic mixture over a
// CDR-shaped component layout (two small outer modes, a wide innermost
// phase mode).
func kronTestDescriptor(t *testing.T, seed int64, phase int) *kron.Descriptor {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mk := func() []*spmat.CSR {
		return []*spmat.CSR{
			randomStochasticFactor(2, rng),
			randomStochasticFactor(3, rng),
			randomStochasticFactor(phase, rng),
		}
	}
	d, err := kron.NewDescriptor([]kron.Term{
		{Coeff: 0.4, Factors: mk()},
		{Coeff: 0.6, Factors: mk()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestKronSolverMatchesDirect(t *testing.T) {
	d := kronTestDescriptor(t, 21, 16)
	ref, err := spmat.StationaryGTHCSR(d.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	segs := d.Dim() / 16
	// Two pairings in the implicit restriction (phase 16 → 4), then the
	// explicit hierarchy pairs down to 2.
	parts, err := BuildPairHierarchy(4, segs, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewKron(d, 2, parts, Config{Tol: 1e-13, Cycle: WCycle})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged: %v", res)
	}
	for i := range ref {
		if math.Abs(res.Pi[i]-ref[i]) > 1e-12 {
			t.Fatalf("pi[%d] = %g, want %g (diff %g)", i, res.Pi[i], ref[i], res.Pi[i]-ref[i])
		}
	}
	if len(res.LevelSizes) < 2 || res.LevelSizes[0] != d.Dim() {
		t.Fatalf("level sizes %v", res.LevelSizes)
	}
}

func TestKronSolverEmptyPartsUsesGTH(t *testing.T) {
	d := kronTestDescriptor(t, 22, 8)
	ref, err := spmat.StationaryGTHCSR(d.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	// Three pairings collapse phase 8 → 1; the coarse chain (one state per
	// outer segment pair) is solved directly.
	s, err := NewKron(d, 3, nil, Config{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged: %v", res)
	}
	for i := range ref {
		if math.Abs(res.Pi[i]-ref[i]) > 1e-12 {
			t.Fatalf("pi[%d] = %g, want %g", i, res.Pi[i], ref[i])
		}
	}
}

func TestKronSolverWarmStart(t *testing.T) {
	d := kronTestDescriptor(t, 23, 8)
	s, err := NewKron(d, 2, nil, Config{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.Solve(cold.Pi)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Converged || warm.Cycles > cold.Cycles {
		t.Fatalf("warm start did not help: cold %d cycles, warm %d", cold.Cycles, warm.Cycles)
	}
}

func TestKronSolverValidation(t *testing.T) {
	d := kronTestDescriptor(t, 24, 8)
	if _, err := NewKron(d, 0, nil, Config{}); err == nil {
		t.Fatal("aggLevels 0 accepted")
	}
	if _, err := NewKron(d, 4, nil, Config{}); err == nil {
		// 4 pairings of phase 8 do not coarsen past 1.
		t.Fatal("over-deep aggregation accepted")
	}
	s, err := NewKron(d, 1, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(make([]float64, 3)); err == nil {
		t.Fatal("bad x0 length accepted")
	}
}

func TestKronSolverCancellation(t *testing.T) {
	d := kronTestDescriptor(t, 25, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := NewKron(d, 2, nil, Config{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestKronSolverCostAccounting(t *testing.T) {
	d := kronTestDescriptor(t, 26, 8)
	meter := cost.NewMeter()
	ctx := cost.ContextWith(context.Background(), meter)
	s, err := NewKron(d, 2, nil, Config{Tol: 1e-12, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := meter.Finish()
	if rep.Cycles != int64(res.Cycles) {
		t.Fatalf("meter cycles %d, result %d", rep.Cycles, res.Cycles)
	}
	// At least one shuffle product per smoothing step and residual check.
	if rep.Pool.SpMVs < int64(res.Cycles)*3 {
		t.Fatalf("SpMVs %d for %d cycles", rep.Pool.SpMVs, res.Cycles)
	}
	if rep.WorkspaceBytes <= 0 {
		t.Fatal("no workspace bytes reported")
	}
}

// TestKronSolverLevelStatsAlign checks that LevelStats and the meter's
// level report line up with LevelSizes: index 0 is the implicit fine
// level, the rest accumulate the inner hierarchy's visits across the
// inner solves of one outer solve.
func TestKronSolverLevelStatsAlign(t *testing.T) {
	d := kronTestDescriptor(t, 27, 16)
	parts, err := BuildPairHierarchy(4, d.Dim()/16, 1)
	if err != nil {
		t.Fatal(err)
	}
	meter := cost.NewMeter()
	ctx := cost.ContextWith(context.Background(), meter)
	s, err := NewKron(d, 2, parts, Config{Tol: 1e-12, Cycle: WCycle, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(nil)
	if err != nil || !res.Converged {
		t.Fatalf("solve failed: %v %v", err, res)
	}
	if len(res.LevelStats) != len(res.LevelSizes) || len(res.LevelSizes) != len(parts)+2 {
		t.Fatalf("%d level stats for level sizes %v", len(res.LevelStats), res.LevelSizes)
	}
	for k, ls := range res.LevelStats {
		if ls.Level != k || ls.Size != res.LevelSizes[k] {
			t.Errorf("level %d: stat %+v, size %d", k, ls, res.LevelSizes[k])
		}
	}
	if res.LevelStats[0].Visits != res.Cycles || res.LevelStats[0].Size != d.Dim() {
		t.Errorf("fine level %+v after %d cycles", res.LevelStats[0], res.Cycles)
	}
	// Every outer cycle runs at least one inner cycle, and the classic inner
	// W-cycle doubles each level's visits relative to its parent.
	if res.LevelStats[1].Visits < res.Cycles {
		t.Errorf("coarse visits %d < outer cycles %d", res.LevelStats[1].Visits, res.Cycles)
	}
	for k := 2; k < len(res.LevelStats); k++ {
		if res.LevelStats[k].Visits != 2*res.LevelStats[k-1].Visits {
			t.Errorf("level %d visits %d, parent %d", k, res.LevelStats[k].Visits, res.LevelStats[k-1].Visits)
		}
	}
	rep := meter.Finish()
	if len(rep.Levels) != len(res.LevelStats) {
		t.Fatalf("meter reports %d levels, want %d", len(rep.Levels), len(res.LevelStats))
	}
	for k, lc := range rep.Levels {
		if lc.Visits != res.LevelStats[k].Visits || lc.Size != res.LevelStats[k].Size {
			t.Errorf("meter level %d = %+v, result %+v", k, lc, res.LevelStats[k])
		}
	}
}

// TestKronSolverFallbackAllocFree checks that the power-sweep fallback
// behind a failed coarse GTH reuses the solver's buffer: the fallback
// allocates nothing beyond the GTH error itself.
func TestKronSolverFallbackAllocFree(t *testing.T) {
	d := kronTestDescriptor(t, 28, 8)
	s, err := NewKron(d, 2, nil, Config{CoarsestMaxIter: 5})
	if err != nil {
		t.Fatal(err)
	}
	// A zero coarse matrix is reducible in every state, so GTH fails.
	clear(s.pc.RawValues())
	for i := range s.xcNew {
		s.xcNew[i] = 1 / float64(len(s.xcNew))
	}
	if _, err := s.gth.StationaryCSR(s.pc); err == nil {
		t.Fatal("GTH solved a zero chain")
	}
	gthAllocs := testing.AllocsPerRun(20, func() { s.gth.StationaryCSR(s.pc) })
	if allocs := testing.AllocsPerRun(20, s.directSolve); allocs > gthAllocs {
		t.Fatalf("fallback allocates %v per call, GTH error alone %v", allocs, gthAllocs)
	}
}
