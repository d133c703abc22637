package multigrid

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"cdrstoch/internal/kron"
	"cdrstoch/internal/lump"
	"cdrstoch/internal/obs"
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

// kronTestChain returns the phase-pair partition chain of a
// kronTestDescriptor: phase points pair within every outer segment until
// segments reach minSegLen.
func kronTestChain(t *testing.T, d *kron.Descriptor, phase, minSegLen int) []*lump.Partition {
	t.Helper()
	parts, err := BuildPairHierarchy(phase, d.Dim()/phase, minSegLen)
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

func TestKronSolverMatchesDirect(t *testing.T) {
	d := kronTestDescriptor(t, 21, 16)
	ref, err := spmat.StationaryGTHCSR(d.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	// Two pairings folded into the implicit restriction (phase 16 → 4),
	// then the explicit hierarchy pairs down to 2.
	parts := kronTestChain(t, d, 16, 2)
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
	// Folding the whole chain collapses phase 8 → 1 in one restriction;
	// the coarse chain (one state per outer segment) is the coarsest level
	// and is solved directly.
	parts := kronTestChain(t, d, 8, 1)
	s, err := NewKron(d, len(parts), parts, Config{Tol: 1e-13})
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
	s, err := NewKron(d, 2, kronTestChain(t, d, 8, 2), Config{Tol: 1e-13})
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
	parts := kronTestChain(t, d, 8, 1)
	if _, err := NewKron(d, 0, parts, Config{}); err == nil {
		t.Fatal("fold 0 accepted")
	}
	if _, err := NewKron(d, len(parts)+1, parts, Config{}); err == nil {
		t.Fatal("fold deeper than the chain accepted")
	}
	if _, err := NewKron(d, 1, parts[1:], Config{}); err == nil {
		t.Fatal("chain not covering the descriptor accepted")
	}
	s, err := NewKron(d, 1, parts[:1], Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(make([]float64, 3)); err == nil {
		t.Fatal("bad x0 length accepted")
	}
}

// TestKronSolverRejectsMixedSegments checks that NewKron refuses fold
// partitions the segment kernels cannot run: one that merges states of
// different segments, and one that aggregates the phase states of odd and
// even segments differently.
func TestKronSolverRejectsMixedSegments(t *testing.T) {
	d := kronTestDescriptor(t, 32, 8)
	segs := d.Dim() / 8
	merge, err := lump.PairSegmentsElementwise(8, segs, 1)
	if err != nil {
		t.Fatal(err)
	}
	blockOf := make([]int, d.Dim())
	for i := range blockOf {
		s, k := i/8, i%8
		if s%2 == 0 {
			blockOf[i] = 4*s + k/2 // pairs (0,1), (2,3), …
		} else {
			blockOf[i] = 4*s + k/4*2 + k%2 // pairs (0,2), (1,3), …
		}
	}
	uneven, err := lump.NewPartition(blockOf)
	if err != nil {
		t.Fatal(err)
	}
	for name, part := range map[string]*lump.Partition{"segment merge": merge, "uneven pairing": uneven} {
		if _, err := NewKron(d, 1, []*lump.Partition{part}, Config{}); err == nil {
			t.Errorf("%s accepted as a fold partition", name)
		}
	}
}

func TestKronSolverCancellation(t *testing.T) {
	d := kronTestDescriptor(t, 25, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := NewKron(d, 2, kronTestChain(t, d, 8, 2), Config{Ctx: ctx})
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
	s, err := NewKron(d, 2, kronTestChain(t, d, 8, 2), Config{Tol: 1e-12, Ctx: ctx})
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
	// At least one counted product per segment sweep, and one shuffle
	// product per residual check.
	if rep.Pool.SpMVs < int64(res.Cycles)*3 {
		t.Fatalf("SpMVs %d for %d cycles", rep.Pool.SpMVs, res.Cycles)
	}
	if rep.WorkspaceBytes <= 0 {
		t.Fatal("no workspace bytes reported")
	}
}

// TestKronSolverLevelStatsAlign checks that LevelStats and the meter's
// level report line up with LevelSizes: index 0 is the implicit fine
// level, index 1 the explicit level its folded restriction produces, the
// rest the explicit levels below.
func TestKronSolverLevelStatsAlign(t *testing.T) {
	d := kronTestDescriptor(t, 27, 16)
	parts := kronTestChain(t, d, 16, 1)
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
	// Two partitions fold into level 0's restriction onto level 1.
	if len(res.LevelStats) != len(res.LevelSizes) || len(res.LevelSizes) != len(parts) {
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
	// Every cycle enters level 1 at least once — exactly once on the first,
	// then as often as brings the coarse residual within a tenth of the
	// previous fine residual — and the classic W-cycle doubles each
	// explicit level's visits relative to its parent.
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

// walkFactor is a reflecting random walk on n points, stepping left with
// probability left and right with probability right.
func walkFactor(n int, left, right float64) *spmat.CSR {
	tr := spmat.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		tr.Add(i, max(i-1, 0), left)
		tr.Add(i, min(i+1, n-1), right)
		tr.Add(i, i, 1-left-right)
	}
	return tr.ToCSR()
}

// TestTraceLevelEventsMatchVisits checks that a traced solve reports every
// level visit, on both backends: per level, the "level" events a collector
// records equal LevelStats[k].Visits, and each carries the level's size.
// The phase mode is a slowly mixing walk, so the implicit level enters
// level 1 several times in most cycles.
func TestTraceLevelEventsMatchVisits(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d, err := kron.NewDescriptor([]kron.Term{
		{Coeff: 0.5, Factors: []*spmat.CSR{randomStochasticFactor(2, rng), randomStochasticFactor(3, rng), walkFactor(16, 0.3, 0.2)}},
		{Coeff: 0.5, Factors: []*spmat.CSR{randomStochasticFactor(2, rng), randomStochasticFactor(3, rng), walkFactor(16, 0.2, 0.35)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	parts := kronTestChain(t, d, 16, 1)
	cfg := Config{Tol: 1e-12, Cycle: WCycle, PairLevels: 3}
	backends := []struct {
		name string
		make func(cfg Config) (*Solver, error)
	}{
		{"explicit", func(cfg Config) (*Solver, error) { return New(d.ToCSR(), parts, cfg) }},
		{"kron", func(cfg Config) (*Solver, error) { return NewKron(d, 2, parts, cfg) }},
	}
	for _, b := range backends {
		col := obs.NewCollector(nil)
		cfg.Trace = col
		s, err := b.make(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(nil)
		if err != nil || !res.Converged {
			t.Fatalf("%s: solve failed: %v %v", b.name, err, res)
		}
		events := make([]int, len(res.LevelStats))
		for _, e := range col.Events() {
			if e.Kind != "level" {
				continue
			}
			if e.Level < 0 || e.Level >= len(events) || e.Size != res.LevelSizes[e.Level] {
				t.Fatalf("%s: level event %+v for level sizes %v", b.name, e, res.LevelSizes)
			}
			events[e.Level]++
		}
		if b.name == "kron" && res.LevelStats[1].Visits <= res.Cycles {
			t.Errorf("kron: %d level-1 visits in %d cycles, want repeated coarse solves", res.LevelStats[1].Visits, res.Cycles)
		}
		for k, ls := range res.LevelStats {
			if events[k] != ls.Visits {
				t.Errorf("%s: level %d: %d level events, %d visits", b.name, k, events[k], ls.Visits)
			}
		}
	}
}

// TestKronSolverOneCycleOneInnerVisit checks the coarse-solve schedule's
// start: with no fine residual measured yet, the first cycle enters level 1
// exactly once however tight the tolerance, so a one-cycle solve visits
// the coarse level once (solving the coarse chain to a 1e−300 tolerance
// would run the cap of 30 level-1 cycles).
func TestKronSolverOneCycleOneInnerVisit(t *testing.T) {
	d := kronTestDescriptor(t, 29, 16)
	parts := kronTestChain(t, d, 16, 1)
	s, err := NewKron(d, 2, parts, Config{Tol: 1e-300, Cycle: WCycle})
	if err != nil {
		t.Fatal(err)
	}
	// Limit the solve after construction: the coarse solve keeps its cap of
	// 30 level-1 cycles rather than inheriting MaxCycles 1.
	s.cfg.MaxCycles = 1
	res, err := s.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 1 || res.Converged {
		t.Fatalf("one-cycle solve: %v", res)
	}
	if v := res.LevelStats[1].Visits; v != 1 {
		t.Errorf("coarse level visited %d times in one cycle, want 1", v)
	}
}

// TestKronSolverAllocsDoNotScaleWithCycles pins the claim that cycles over
// an implicit level allocate nothing: a solve's allocations (result
// vectors, level reports) may not grow with its cycle count, coarse solves
// included.
func TestKronSolverAllocsDoNotScaleWithCycles(t *testing.T) {
	d := kronTestDescriptor(t, 30, 16)
	parts := kronTestChain(t, d, 16, 1)
	s, err := NewKron(d, 2, parts, Config{Tol: 1e-300, Cycle: WCycle, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	measure := func(cycles int) float64 {
		s.cfg.MaxCycles = cycles
		return testing.AllocsPerRun(10, func() {
			if _, err := s.Solve(nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := measure(2)
	long := measure(20)
	if long > short {
		t.Errorf("allocs grew with cycle count: %v (2 cycles) -> %v (20 cycles)", short, long)
	}
}

// TestCoarsestFallbackAllocFree checks the coarsest solve's fallback:
// when GTH fails on a reducible coarse chain, the Gauss–Seidel sweeps that
// replace it allocate nothing, so the fallback allocates only the GTH
// error.
func TestCoarsestFallbackAllocFree(t *testing.T) {
	d := kronTestDescriptor(t, 28, 8)
	parts := kronTestChain(t, d, 8, 2)
	s, err := NewKron(d, len(parts), parts, Config{CoarsestMaxIter: 5})
	if err != nil {
		t.Fatal(err)
	}
	lv := s.levels[len(s.levels)-1]
	// A zero coarse matrix is reducible in every state, so GTH fails.
	clear(lv.p.RawValues())
	lv.p.RefreshTranspose(lv.pt, lv.perm)
	x := make([]float64, lv.size)
	for i := range x {
		x[i] = 1 / float64(len(x))
	}
	if _, err := s.gth.StationaryCSR(lv.p); err == nil {
		t.Fatal("GTH solved a zero chain")
	}
	sweeps := func() { s.gaussSeidel(lv.pt, x, s.cfg.CoarsestMaxIter) }
	if allocs := testing.AllocsPerRun(20, sweeps); allocs != 0 {
		t.Fatalf("fallback sweeps allocate %v per call", allocs)
	}
	if raceEnabled {
		// The GTH error's fmt.Errorf draws its printer from a sync.Pool,
		// which race builds make drop Puts at random: its count varies.
		return
	}
	gthAllocs := testing.AllocsPerRun(20, func() { s.gth.StationaryCSR(lv.p) })
	if allocs := testing.AllocsPerRun(20, func() { s.coarsestSolve(lv, x) }); allocs > gthAllocs {
		t.Fatalf("fallback allocates %v per call, GTH error alone %v", allocs, gthAllocs)
	}
}
