package lump_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cdrstoch/internal/core"
	"cdrstoch/internal/experiments"
	"cdrstoch/internal/lump"
	"cdrstoch/internal/spmat"
)

// tripletPlan is the construction NewPlan replaced, kept as the oracle: the
// coarse pattern from a triplet of every fine entry's block pair, and each
// fine entry's destination found with EntryIndex.
func tripletPlan(t *testing.T, p *spmat.CSR, part *lump.Partition) (*spmat.CSR, []int32) {
	t.Helper()
	n, _ := p.Dims()
	nb := part.NumBlocks()
	tr := spmat.NewTriplet(nb, nb)
	for i := range n {
		cols, _ := p.Row(i)
		for _, j := range cols {
			tr.Add(part.BlockOf(i), part.BlockOf(j), 0)
		}
	}
	coarse := tr.ToCSR()
	var dest []int32
	for i := range n {
		cols, _ := p.Row(i)
		for _, j := range cols {
			d := coarse.EntryIndex(part.BlockOf(i), part.BlockOf(j))
			if d < 0 {
				t.Fatalf("oracle: coarse entry (%d,%d) missing", part.BlockOf(i), part.BlockOf(j))
			}
			dest = append(dest, int32(d))
		}
	}
	return coarse, dest
}

// checkPlanMatchesTriplet requires NewPlan's coarse matrix and destinations
// to equal the oracle's exactly: the same rows, columns and (zero) value
// bits, and the same destination for every fine entry.
func checkPlanMatchesTriplet(t *testing.T, name string, p *spmat.CSR, part *lump.Partition) *lump.Plan {
	t.Helper()
	plan, err := lump.NewPlan(p, part)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, wantDest := tripletPlan(t, p, part)
	got := plan.Coarse()
	if gr, gc := got.Dims(); gr != part.NumBlocks() || gc != part.NumBlocks() || got.NNZ() != want.NNZ() {
		t.Fatalf("%s: coarse %dx%d with %d entries, oracle %d entries", name, gr, gc, got.NNZ(), want.NNZ())
	}
	for I := range part.NumBlocks() {
		gcols, gvals := got.Row(I)
		wcols, wvals := want.Row(I)
		if !slices.Equal(gcols, wcols) || !slices.Equal(gvals, wvals) {
			t.Fatalf("%s: coarse row %d = %v %v, oracle %v %v", name, I, gcols, gvals, wcols, wvals)
		}
	}
	if !slices.Equal(lump.PlanDest(plan), wantDest) {
		t.Fatalf("%s: destinations differ from the oracle's", name)
	}
	return plan
}

// TestNewPlanMatchesTripletOnHierarchies walks the Figure 5 hierarchies at
// counters 2, 8 and 32, level by level, through both constructions.
func TestNewPlanMatchesTripletOnHierarchies(t *testing.T) {
	for _, counter := range []int{2, 8, 32} {
		m, err := core.Build(experiments.Fig5Spec(counter))
		if err != nil {
			t.Fatal(err)
		}
		parts, err := m.Hierarchy(4)
		if err != nil {
			t.Fatal(err)
		}
		p := m.P
		for k, part := range parts {
			p = checkPlanMatchesTriplet(t, fmt.Sprintf("counter %d level %d", counter, k), p, part).Coarse()
		}
	}
}

// TestNewPlanMatchesTripletOnRandomPartitions covers random sparse matrices
// with stored zeros under random partitions, whose blocks interleave.
func TestNewPlanMatchesTripletOnRandomPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := range 20 {
		n := 5 + rng.Intn(60)
		tr := spmat.NewTriplet(n, n)
		for i := range n {
			for j := range n {
				if rng.Float64() < 0.15 {
					v := rng.Float64()
					if rng.Float64() < 0.3 {
						v = 0 // a stored zero
					}
					tr.Add(i, j, v)
				}
			}
		}
		nb := 1 + rng.Intn(n)
		blockOf := make([]int, n)
		for i := range blockOf {
			blockOf[i] = i % nb // every block non-empty
		}
		rng.Shuffle(n, func(i, j int) { blockOf[i], blockOf[j] = blockOf[j], blockOf[i] })
		part, err := lump.NewPartition(blockOf)
		if err != nil {
			t.Fatal(err)
		}
		checkPlanMatchesTriplet(t, fmt.Sprintf("random trial %d", trial), tr.ToCSR(), part)
	}
}
