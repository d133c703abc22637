package multigrid

import (
	"fmt"
	"testing"

	"cdrstoch/internal/lump"
	"cdrstoch/internal/spmat"
)

// segmentedWalk builds segs reflecting random walks of segLen states each,
// coupled by a small hop to the same position of the next segment — the
// (counter, phase) layout of the CDR model in miniature.
func segmentedWalk(segLen, segs int, hop float64) *spmat.CSR {
	n := segLen * segs
	tr := spmat.NewTriplet(n, n)
	rem := 1 - hop
	for s := 0; s < segs; s++ {
		for i := 0; i < segLen; i++ {
			idx := s*segLen + i
			left, right := idx-1, idx+1
			if i == 0 {
				left = idx
			}
			if i == segLen-1 {
				right = idx
			}
			tr.Add(idx, left, 0.35*rem)
			tr.Add(idx, right, 0.25*rem)
			tr.Add(idx, idx, 0.4*rem)
			tr.Add(idx, ((s+1)%segs)*segLen+i, hop)
		}
	}
	return tr.ToCSR()
}

// pairThenMergeHierarchy pairs phase points within segments down to two,
// then merges adjacent segments elementwise down to one — the shape of
// core.Model.Hierarchy: phase-pair levels first, a merge tail below. It
// returns the chain and its phase-pair level count.
func pairThenMergeHierarchy(t *testing.T, segLen, segs int) ([]*lump.Partition, int) {
	t.Helper()
	parts, err := BuildPairHierarchy(segLen, segs, 2)
	if err != nil {
		t.Fatal(err)
	}
	pairLevels := len(parts)
	for ; segs > 1; segs = (segs + 1) / 2 {
		part, err := lump.PairSegmentsElementwise(2, segs, 1)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, part)
	}
	return parts, pairLevels
}

// TestWCyclePairLevelsVisitCounts pins the schedule: a W-cycle with
// PairLevels = k visits level j 2^min(j,k) times per cycle, and the zero
// value is the classic 2^j.
func TestWCyclePairLevelsVisitCounts(t *testing.T) {
	p := segmentedWalk(16, 8, 0.02)
	parts, pairLevels := pairThenMergeHierarchy(t, 16, 8)
	if pairLevels != 3 || len(parts) != 6 {
		t.Fatalf("hierarchy: %d pair levels of %d, want 3 of 6", pairLevels, len(parts))
	}
	ref, err := spmat.StationaryGTHCSR(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, pairLevels, len(parts)} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			s, err := New(p, parts, Config{Tol: 1e-12, Cycle: WCycle, PreSmooth: 2, PostSmooth: 2, PairLevels: k})
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Solve(nil)
			if err != nil || !res.Converged {
				t.Fatalf("solve failed: %v %v", err, res)
			}
			if d := maxAbsDiff(res.Pi, ref); d > 1e-10 {
				t.Fatalf("off GTH by %g", d)
			}
			for j, ls := range res.LevelStats {
				e := j
				if k > 0 {
					e = min(j, k)
				}
				if want := res.Cycles << e; ls.Visits != want {
					t.Errorf("level %d visits = %d, want cycles·2^%d = %d", j, ls.Visits, e, want)
				}
			}
		})
	}
}

// TestKronPairLevelsCountFullChain checks that PairLevels counts
// partitions of the full chain on a NewKron solver too: its level 0 folds
// the first fold partitions, so explicit level j ≥ 1 restricts with
// partition fold+j−1 and doubles its coarse visits exactly when that index
// is below PairLevels.
func TestKronPairLevelsCountFullChain(t *testing.T) {
	d := kronTestDescriptor(t, 32, 16)
	parts, pairLevels := pairThenMergeHierarchy(t, 16, d.Dim()/16)
	const fold = 2
	for _, k := range []int{1, fold, pairLevels, len(parts)} {
		s, err := NewKron(d, fold, parts, Config{Tol: 1e-12, Cycle: WCycle, PairLevels: k})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(nil)
		if err != nil || !res.Converged {
			t.Fatalf("k=%d: solve failed: %v %v", k, err, res)
		}
		stats := res.LevelStats
		for j := 1; j+1 < len(stats); j++ {
			want := stats[j].Visits
			if fold+j-1 < k {
				want *= 2
			}
			if stats[j+1].Visits != want {
				t.Errorf("k=%d: level %d visits = %d after %d at level %d, want %d",
					k, j+1, stats[j+1].Visits, stats[j].Visits, j, want)
			}
		}
	}
}

// TestVCycleIgnoresPairLevels checks that PairLevels only shapes W-cycles.
func TestVCycleIgnoresPairLevels(t *testing.T) {
	p := segmentedWalk(16, 8, 0.02)
	parts, pairLevels := pairThenMergeHierarchy(t, 16, 8)
	s, err := New(p, parts, Config{Tol: 1e-12, PairLevels: pairLevels})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(nil)
	if err != nil || !res.Converged {
		t.Fatalf("solve failed: %v %v", err, res)
	}
	for j, ls := range res.LevelStats {
		if ls.Visits != res.Cycles {
			t.Errorf("level %d visits = %d, want %d", j, ls.Visits, res.Cycles)
		}
	}
}

func TestNegativePairLevelsRejected(t *testing.T) {
	p := segmentedWalk(8, 2, 0.02)
	parts, _ := BuildPairHierarchy(8, 2, 2)
	if _, err := New(p, parts, Config{Cycle: WCycle, PairLevels: -1}); err == nil {
		t.Fatal("negative PairLevels accepted")
	}
}

// TestColdDefaultsCountsPairLevels checks that ColdDefaults confines the
// W-cycle to the levels BuildPairHierarchy builds, and falls back to a
// V-cycle when there are none.
func TestColdDefaultsCountsPairLevels(t *testing.T) {
	for _, tc := range []struct {
		segLen, minSeg, levels, coarse int
	}{
		{1, 0, 0, 1},
		{4, 4, 0, 4},
		{5, 4, 1, 3},
		{64, 4, 4, 4},
		{65, 4, 5, 3},
		{128, 0, 7, 1},
	} {
		levels, coarse := PairLevelCount(tc.segLen, tc.minSeg)
		if levels != tc.levels || coarse != tc.coarse {
			t.Errorf("PairLevelCount(%d, %d) = %d, %d, want %d, %d",
				tc.segLen, tc.minSeg, levels, coarse, tc.levels, tc.coarse)
		}
		parts, err := BuildPairHierarchy(tc.segLen, 1, tc.minSeg)
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != tc.levels {
			t.Errorf("BuildPairHierarchy(%d, 1, %d) built %d levels, want %d",
				tc.segLen, tc.minSeg, len(parts), tc.levels)
		}
		want := Config{Tol: 1e-9, Cycle: WCycle, PreSmooth: 2, PostSmooth: 2, PairLevels: tc.levels}
		if tc.levels == 0 {
			want.Cycle = VCycle
		}
		if got := ColdDefaults(Config{Tol: 1e-9}, tc.segLen, tc.minSeg); got != want {
			t.Errorf("ColdDefaults(%d, %d) = %+v, want %+v", tc.segLen, tc.minSeg, got, want)
		}
	}
}

// TestColdDefaultsWithoutPairLevels checks that a hierarchy made only of
// merge levels gets one visit per level per cycle under the cold default,
// not the classic W-cycle's 2^j.
func TestColdDefaultsWithoutPairLevels(t *testing.T) {
	p := segmentedWalk(2, 8, 0.02)
	parts, pairLevels := pairThenMergeHierarchy(t, 2, 8)
	if pairLevels != 0 || len(parts) != 3 {
		t.Fatalf("hierarchy: %d pair levels of %d, want 0 of 3", pairLevels, len(parts))
	}
	s, err := New(p, parts, ColdDefaults(Config{Tol: 1e-12}, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(nil)
	if err != nil || !res.Converged {
		t.Fatalf("solve failed: %v %v", err, res)
	}
	for j, ls := range res.LevelStats {
		if ls.Visits != res.Cycles {
			t.Errorf("level %d visits = %d, want %d", j, ls.Visits, res.Cycles)
		}
	}
}

// TestColdDefaultsKeepsExplicitConfig checks that a caller's own cycle
// choice, including the classic W-cycle, passes through untouched.
func TestColdDefaultsKeepsExplicitConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Cycle: WCycle},
		{Cycle: WCycle, PreSmooth: 2, PostSmooth: 2},
		{PreSmooth: 1},
		{PostSmooth: 3},
	} {
		if got := ColdDefaults(cfg, 64, 4); got != cfg {
			t.Errorf("ColdDefaults(%+v) = %+v, want unchanged", cfg, got)
		}
	}
}
