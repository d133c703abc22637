package kron

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"cdrstoch/internal/spmat"
)

// The VecMul workspace fix is pinned by this test: after one warmup
// multiply, VecMul and MulVec may not allocate per call, and neither may
// the shuffle kernel behind them on a workspace it keeps. Race builds
// check only the kept workspace: there sync.Pool drops a random quarter of
// Puts on purpose, so the pooled products regrow their scratch now and
// then (the non-race ci stage still pins them).
func TestShuffleProductsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	d, err := NewDescriptor([]Term{
		{Coeff: 0.5, Factors: []*spmat.CSR{
			randomStochasticCSR(3, rng), randomStochasticCSR(4, rng), randomStochasticCSR(5, rng),
		}},
		{Coeff: 0.5, Factors: []*spmat.CSR{
			randomStochasticCSR(3, rng), randomStochasticCSR(4, rng), randomStochasticCSR(5, rng),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, d.Dim())
	y := make([]float64, d.Dim())
	for i := range x {
		x[i] = 1 / float64(len(x))
	}
	var ws workspace
	cases := []struct {
		name string
		f    func()
	}{
		{"x·P kernel", func() { d.mul(true, &ws, y, x) }},
		{"P·x kernel", func() { d.mul(false, &ws, y, x) }},
		{"VecMul", func() { d.VecMul(y, x) }},
		{"MulVec", func() { d.MulVec(y, x) }},
	}
	if raceEnabled {
		cases = cases[:2]
	}
	for _, tc := range cases {
		tc.f() // warmup: grow scratch once
		if allocs := testing.AllocsPerRun(20, tc.f); allocs != 0 {
			t.Errorf("%s: %v allocs per call after warmup", tc.name, allocs)
		}
	}
}

// Parallel shuffle products must agree bit for bit with the serial
// evaluation and with the full-slab reference, and be race-free under
// concurrent use of one shared descriptor (run under -race in ci).
func TestParallelShuffleMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	// Wide innermost factor so the right-stride split engages, and a wide
	// outermost so the left-slab split engages; dimension beyond the
	// parallel cutoff. The second term has the CDR transition shape — a
	// one-column reset, a single-entry counter step — so its later modes
	// run on one active slab and split along the stride.
	a := randomStochasticCSR(8, rng)
	b := randomStochasticCSR(8, rng)
	c := randomStochasticCSR(512, rng)
	terms := func() []Term {
		return []Term{
			{Coeff: 0.75, Factors: []*spmat.CSR{a, b, c}},
			{Coeff: 0.25, Factors: []*spmat.CSR{
				sparseSupportFactor(1, 8, 0, rng), sparseSupportFactor(2, 8, 0, rng), c,
			}},
		}
	}
	serial, err := NewDescriptor(terms())
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewDescriptor(serial.terms)
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetWorkers(4)
	if parallel.Dim() < spmat.ParallelCutoff {
		t.Fatalf("test descriptor below parallel cutoff: %d", parallel.Dim())
	}
	x := make([]float64, serial.Dim())
	for i := range x {
		x[i] = rng.Float64()
	}
	for name, pair := range map[string]func(d *Descriptor, y []float64){
		"VecMul": func(d *Descriptor, y []float64) { d.VecMul(y, x) },
		"MulVec": func(d *Descriptor, y []float64) { d.MulVec(y, x) },
	} {
		want := make([]float64, serial.Dim())
		pair(serial, want)
		ref := make([]float64, serial.Dim())
		fullSlabMul(serial, name == "VecMul", ref, x)
		for i := range ref {
			if math.Float64bits(want[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("%s: serial y[%d] = %v, full-slab %v", name, i, want[i], ref[i])
			}
		}
		var wg sync.WaitGroup
		errs := make([]int, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got := make([]float64, parallel.Dim())
				pair(parallel, got)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						errs[g]++
					}
				}
			}(g)
		}
		wg.Wait()
		for g, n := range errs {
			if n > 0 {
				t.Fatalf("%s: goroutine %d saw %d mismatches vs serial", name, g, n)
			}
		}
	}
}

// Diag and RowSums are the structural surface the operator backend
// relies on; both must agree with the materialized matrix.
func TestStructuralSurfaceMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 5; trial++ {
		nt := 1 + rng.Intn(3)
		terms := make([]Term, nt)
		for ti := range terms {
			terms[ti] = Term{Coeff: rng.NormFloat64(), Factors: []*spmat.CSR{
				randomCSR(3, 3, 0.6, rng), randomCSR(4, 4, 0.6, rng),
			}}
		}
		d, err := NewDescriptor(terms)
		if err != nil {
			t.Fatal(err)
		}
		m := d.ToCSR()
		diag := d.Diag()
		sums := d.RowSums()
		refSums := m.RowSums()
		for i := 0; i < d.Dim(); i++ {
			if math.Abs(diag[i]-m.At(i, i)) > 1e-12 {
				t.Fatalf("trial %d: diag[%d] = %g, want %g", trial, i, diag[i], m.At(i, i))
			}
			if math.Abs(sums[i]-refSums[i]) > 1e-12 {
				t.Fatalf("trial %d: rowsum[%d] = %g, want %g", trial, i, sums[i], refSums[i])
			}
		}
	}
}
