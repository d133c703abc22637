package lump

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"cdrstoch/internal/spmat"
)

// TestPlanMatchesLump is the oracle of the transposed plan: Update on a
// fine transpose must equal the transpose of a fresh Lump to 1e−15
// relative, entry by entry, with the plan's extra (structural-only)
// entries at zero. It covers random dense chains under pair and
// elementwise segment partitions, random iterates, and an iterate whose
// first block carries no mass, which lumps with the uniform fallback.
func TestPlanMatchesLump(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{8, 30, 64} {
		p := randomStochasticCSR(n, rng)
		pairs, err := PairsWithinSegments(n/2, 2)
		if err != nil {
			t.Fatal(err)
		}
		elementwise, err := PairSegmentsElementwise(n/2, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		for name, part := range map[string]*Partition{"pairs": pairs, "elementwise": elementwise} {
			plan, err := NewPlan(p.Transpose(), part)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 4; trial++ {
				x := make([]float64, n)
				for i := range x {
					x[i] = rng.Float64()
				}
				if trial == 0 {
					for _, i := range part.Blocks()[0] {
						x[i] = 0
					}
				}
				want, err := Lump(p, part, x)
				if err != nil {
					t.Fatal(err)
				}
				if err := plan.Update(x); err != nil {
					t.Fatal(err)
				}
				got := plan.CoarseT()
				nb := part.NumBlocks()
				for i := 0; i < nb; i++ {
					for j := 0; j < nb; j++ {
						g, w := got.At(j, i), want.At(i, j)
						if g != w && math.Abs(g-w) > 1e-15*math.Max(math.Abs(g), math.Abs(w)) {
							t.Fatalf("n=%d %s trial %d: coarse (%d,%d) = %g, Lump %g",
								n, name, trial, i, j, g, w)
						}
					}
				}
				w := part.Weights(x)
				for i, v := range plan.Weights() {
					if math.Abs(v-w[i]) > 1e-15 {
						t.Fatalf("weights[%d] = %g, want %g", i, v, w[i])
					}
				}
			}
		}
	}
}

// TestPlanReportsNonStochasticCoarseRows checks that Update's check on the
// coarse transpose still catches what CheckStochastic catches on a coarse
// matrix, naming the coarse row: a negative entry and a row that does not
// sum to 1.
func TestPlanReportsNonStochasticCoarseRows(t *testing.T) {
	part, err := PairsWithinSegments(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 8)
	for i := range x {
		x[i] = 1
	}
	for _, c := range []struct {
		name  string
		plant func(row []float64) // row 5 of P, block 2
		want  string
	}{
		// P_50 = −3 with the mass moved to P_57 makes P_c(2,0) negative.
		{"negative entry", func(row []float64) { row[7] += row[0] + 3; row[0] = -3 }, "negative probability"},
		{"row sum", func(row []float64) { row[3] += 0.5 }, "row 2 sums to"},
	} {
		p := randomStochasticCSR(8, rand.New(rand.NewSource(15)))
		_, row := p.Row(5)
		c.plant(row)
		plan, err := NewPlan(p.Transpose(), part)
		if err != nil {
			t.Fatal(err)
		}
		err = plan.Update(x)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Update error %v, want one containing %q", c.name, err, c.want)
		}
		if c.name == "negative entry" && (err == nil || !strings.Contains(err.Error(), "at (2,0)")) {
			t.Errorf("%s: Update error %v does not name coarse entry (2,0)", c.name, err)
		}
	}
}

// TestPlanTracksInPlaceFineRefresh rewrites the fine transpose's values in
// place (the level-to-level situation in the multigrid hierarchy) and
// checks Update picks up the new values.
func TestPlanTracksInPlaceFineRefresh(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pt := randomStochasticCSR(20, rng).Transpose()
	part, err := PairsWithinSegments(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(pt, part)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 20)
	for i := range x {
		x[i] = 1
	}
	// Replace pt's values with the transpose of a different stochastic
	// matrix of identical pattern (dense random rows → same full pattern).
	fresh := randomStochasticCSR(20, rng)
	copy(pt.RawValues(), fresh.Transpose().RawValues())
	if err := plan.Update(x); err != nil {
		t.Fatal(err)
	}
	want, err := Lump(fresh, part, x)
	if err != nil {
		t.Fatal(err)
	}
	got := plan.CoarseT()
	for i := 0; i < part.NumBlocks(); i++ {
		for j := 0; j < part.NumBlocks(); j++ {
			if d := math.Abs(got.At(j, i) - want.At(i, j)); d > 1e-14 {
				t.Fatalf("coarse (%d,%d) off by %g after refresh", i, j, d)
			}
		}
	}
}

// TestPlanUpdateNoAlloc asserts the steady-state promise: zero heap
// allocation per Update after the plan is built.
func TestPlanUpdateNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pt := randomStochasticCSR(32, rng).Transpose()
	part, err := PairsWithinSegments(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(pt, part)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 32)
	for i := range x {
		x[i] = rng.Float64() + 0.01
	}
	avg := testing.AllocsPerRun(20, func() {
		if err := plan.Update(x); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Update allocates %v times per call, want 0", avg)
	}
}

func TestPlanValidation(t *testing.T) {
	rect := spmat.NewTriplet(2, 3)
	rect.Add(0, 0, 1)
	rect.Add(1, 2, 1)
	part2, err := NewPartition([]int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlan(rect.ToCSR(), part2); err == nil {
		t.Error("rectangular matrix accepted")
	}
	rng := rand.New(rand.NewSource(14))
	p := randomStochasticCSR(6, rng)
	if _, err := NewPlan(p, part2); err == nil {
		t.Error("mismatched partition accepted")
	}
	part6, err := PairsWithinSegments(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(p, part6)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Update(make([]float64, 3)); err == nil {
		t.Error("short iterate accepted")
	}
}
