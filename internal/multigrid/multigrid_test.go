package multigrid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cdrstoch/internal/lump"
	"cdrstoch/internal/markov"
	"cdrstoch/internal/spmat"
)

// randomWalkChain builds a birth–death chain on n states with reflecting
// boundaries and a drift — a 1-D caricature of the phase-error dynamics,
// on which pair coarsening is the natural hierarchy.
func randomWalkChain(n int, up, down float64) *spmat.CSR {
	stay := 1 - up - down
	tr := spmat.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		switch {
		case i == 0:
			tr.Add(0, 0, stay+down)
			tr.Add(0, 1, up)
		case i == n-1:
			tr.Add(n-1, n-1, stay+up)
			tr.Add(n-1, n-2, down)
		default:
			tr.Add(i, i-1, down)
			tr.Add(i, i, stay)
			tr.Add(i, i+1, up)
		}
	}
	return tr.ToCSR()
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestNewValidation(t *testing.T) {
	p := randomWalkChain(8, 0.3, 0.2)
	// Partition over wrong size.
	bad, _ := lump.PairsWithinSegments(3, 2)
	if _, err := New(p, []*lump.Partition{bad}, Config{}); err == nil {
		t.Error("size-mismatched partition accepted")
	}
	// Non-coarsening partition (identity).
	id := make([]int, 8)
	for i := range id {
		id[i] = i
	}
	pid, _ := lump.NewPartition(id)
	if _, err := New(p, []*lump.Partition{pid}, Config{}); err == nil {
		t.Error("identity partition accepted")
	}
	// Non-square matrix.
	tr := spmat.NewTriplet(2, 3)
	tr.Add(0, 0, 1)
	tr.Add(1, 1, 1)
	if _, err := New(tr.ToCSR(), nil, Config{}); err == nil {
		t.Error("non-square accepted")
	}
}

// TestNewRejectsOversizedCoarsest checks that New refuses a chain whose
// coarsest level is too large for its dense GTH solve, with or without
// partitions, and accepts one that coarsens below the bound.
func TestNewRejectsOversizedCoarsest(t *testing.T) {
	p := randomWalkChain(2*maxCoarsest+2, 0.3, 0.2)
	if _, err := New(p, nil, Config{}); err == nil {
		t.Errorf("%d-state chain with no partitions accepted", 2*maxCoarsest+2)
	}
	parts, err := BuildPairHierarchy(2*maxCoarsest+2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(p, parts[:1], Config{}); err == nil {
		t.Errorf("coarsest level of %d states accepted", parts[0].NumBlocks())
	}
	if _, err := New(p, parts[:2], Config{}); err != nil {
		t.Errorf("coarsest level of %d states rejected: %v", parts[1].NumBlocks(), err)
	}
}

func TestBuildPairHierarchy(t *testing.T) {
	parts, err := BuildPairHierarchy(16, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 16 -> 8 -> 4 -> 2: three partitions.
	if len(parts) != 3 {
		t.Fatalf("levels = %d, want 3", len(parts))
	}
	sizes := []int{16 * 3, 8 * 3, 4 * 3, 2 * 3}
	for k, part := range parts {
		if part.NumStates() != sizes[k] || part.NumBlocks() != sizes[k+1] {
			t.Fatalf("level %d: %d -> %d", k, part.NumStates(), part.NumBlocks())
		}
	}
	if _, err := BuildPairHierarchy(0, 1, 1); err == nil {
		t.Error("bad layout accepted")
	}
}

func TestBuildPairHierarchyOddLengths(t *testing.T) {
	parts, err := BuildPairHierarchy(7, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 7 -> 4 -> 2 -> 1.
	want := []int{14, 8, 4, 2}
	if len(parts) != 3 {
		t.Fatalf("levels = %d", len(parts))
	}
	for k, part := range parts {
		if part.NumStates() != want[k] || part.NumBlocks() != want[k+1] {
			t.Fatalf("level %d: %d -> %d", k, part.NumStates(), part.NumBlocks())
		}
	}
}

func TestSolveMatchesGTHOnRandomWalk(t *testing.T) {
	n := 64
	p := randomWalkChain(n, 0.3, 0.25)
	parts, err := BuildPairHierarchy(n, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, parts, Config{Tol: 1e-13})
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
	ref, err := spmat.StationaryGTHCSR(p)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Pi, ref); d > 1e-10 {
		t.Fatalf("multigrid off by %g", d)
	}
}

func TestSolveWCycle(t *testing.T) {
	n := 32
	p := randomWalkChain(n, 0.4, 0.1)
	parts, _ := BuildPairHierarchy(n, 1, 2)
	s, err := New(p, parts, Config{Tol: 1e-12, Cycle: WCycle})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(nil)
	if err != nil || !res.Converged {
		t.Fatalf("W-cycle failed: %v %v", err, res)
	}
	ref, _ := spmat.StationaryGTHCSR(p)
	if d := maxAbsDiff(res.Pi, ref); d > 1e-10 {
		t.Fatalf("W-cycle off by %g", d)
	}
}

func TestSolveSegmentedChain(t *testing.T) {
	// Two independent 8-state random walks glued as a product-like block
	// structure: segments of length 8 with rare inter-segment hops.
	segLen, segs := 8, 3
	n := segLen * segs
	tr := spmat.NewTriplet(n, n)
	hop := 0.01
	for s := 0; s < segs; s++ {
		base := s * segLen
		for i := 0; i < segLen; i++ {
			idx := base + i
			rem := 1.0 - hop
			if i > 0 {
				tr.Add(idx, idx-1, 0.3*rem)
			} else {
				tr.Add(idx, idx, 0.3*rem)
			}
			if i < segLen-1 {
				tr.Add(idx, idx+1, 0.3*rem)
			} else {
				tr.Add(idx, idx, 0.3*rem)
			}
			tr.Add(idx, idx, 0.4*rem)
			tr.Add(idx, ((s+1)%segs)*segLen+i, hop)
		}
	}
	p := tr.ToCSR()
	parts, err := BuildPairHierarchy(segLen, segs, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, parts, Config{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(nil)
	if err != nil || !res.Converged {
		t.Fatalf("segmented solve failed: %v %v", err, res)
	}
	ref, err := spmat.StationaryGTHCSR(p)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Pi, ref); d > 1e-9 {
		t.Fatalf("segmented multigrid off by %g", d)
	}
}

func TestMultigridBeatsPowerIterationInIterations(t *testing.T) {
	// Slow-mixing chain: weak drift random walk; power iteration needs many
	// sweeps, multigrid few cycles. Each cycle costs a handful of sweeps
	// per level, so compare against cycles × (smoothing per cycle × levels).
	n := 256
	p := randomWalkChain(n, 0.26, 0.25)
	parts, _ := BuildPairHierarchy(n, 1, 4)
	s, err := New(p, parts, Config{Tol: 1e-10, Cycle: WCycle, PreSmooth: 2, PostSmooth: 2})
	if err != nil {
		t.Fatal(err)
	}
	mg, err := s.Solve(nil)
	if err != nil || !mg.Converged {
		t.Fatalf("mg: %v %v", err, mg)
	}
	ch, err := markov.New(p)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := ch.StationaryPower(markov.Options{Tol: 1e-10, MaxIter: 2000000, Damping: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	// A W-cycle on L levels with halving sizes and 4 sweeps per level costs
	// roughly 4·L fine-sweep equivalents; grant a generous 8·L and still
	// demand an order-of-magnitude win over plain power iteration.
	mgWork := mg.Cycles * 8 * len(mg.LevelSizes)
	if !pw.Converged || pw.Iterations < 10*mgWork {
		t.Fatalf("expected clear multigrid win: mg cycles=%d (≈%d sweep-equivalents), power iters=%d (converged=%v)",
			mg.Cycles, mgWork, pw.Iterations, pw.Converged)
	}
}

func TestSolveX0Validation(t *testing.T) {
	p := randomWalkChain(8, 0.3, 0.2)
	parts, _ := BuildPairHierarchy(8, 1, 2)
	s, err := New(p, parts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve([]float64{1, 2}); err == nil {
		t.Error("bad x0 length accepted")
	}
	if _, err := s.Solve(make([]float64, 8)); err == nil {
		t.Error("zero x0 accepted")
	}
	if _, err := s.Solve([]float64{-1, 2, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("negative x0 accepted")
	}
}

func TestLevelSizes(t *testing.T) {
	p := randomWalkChain(16, 0.3, 0.2)
	parts, _ := BuildPairHierarchy(16, 1, 2)
	s, err := New(p, parts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := s.LevelSizes()
	want := []int{16, 8, 4, 2}
	if len(sizes) != len(want) {
		t.Fatalf("sizes = %v", sizes)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", sizes, want)
		}
	}
}

func TestResidualHistoryMonotoneOverall(t *testing.T) {
	p := randomWalkChain(64, 0.3, 0.2)
	parts, _ := BuildPairHierarchy(64, 1, 4)
	s, _ := New(p, parts, Config{Tol: 1e-12})
	res, err := s.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ResidualHistory) != res.Cycles {
		t.Fatalf("history length %d, cycles %d", len(res.ResidualHistory), res.Cycles)
	}
	first, last := res.ResidualHistory[0], res.ResidualHistory[len(res.ResidualHistory)-1]
	if last >= first {
		t.Fatalf("residual did not decrease: %g -> %g", first, last)
	}
}

// Property: on random segmented chains, multigrid converges to a fixed
// point of P within tolerance.
func TestQuickMultigridFixedPoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		segLen := 4 * (1 + rng.Intn(3)) // 4, 8, 12
		segs := 1 + rng.Intn(3)
		n := segLen * segs
		tr := spmat.NewTriplet(n, n)
		for i := 0; i < n; i++ {
			// Local random walk plus a small uniform background keeps the
			// chain irreducible and aperiodic.
			bg := 0.02
			for j := 0; j < n; j++ {
				tr.Add(i, j, bg/float64(n))
			}
			left := i - 1
			if left < 0 {
				left = i
			}
			right := i + 1
			if right >= n {
				right = i
			}
			u := 0.2 + 0.3*rng.Float64()
			tr.Add(i, left, (1-bg)*u)
			tr.Add(i, right, (1-bg)*(1-u))
		}
		p := tr.ToCSR()
		parts, err := BuildPairHierarchy(segLen, segs, 2)
		if err != nil {
			return false
		}
		s, err := New(p, parts, Config{Tol: 1e-11, MaxCycles: 500})
		if err != nil {
			return false
		}
		res, err := s.Solve(nil)
		if err != nil || !res.Converged {
			return false
		}
		sum := 0.0
		for _, v := range res.Pi {
			if v < -1e-15 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
