package kron

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cdrstoch/internal/markov"
	"cdrstoch/internal/spmat"
)

func randomCSR(r, c int, density float64, rng *rand.Rand) *spmat.CSR {
	tr := spmat.NewTriplet(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				tr.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return tr.ToCSR()
}

func randomStochasticCSR(n int, rng *rand.Rand) *spmat.CSR {
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

func TestKronSmallKnown(t *testing.T) {
	// A = [[1,2],[3,4]], B = [[0,1],[1,0]].
	ta := spmat.NewTriplet(2, 2)
	ta.Add(0, 0, 1)
	ta.Add(0, 1, 2)
	ta.Add(1, 0, 3)
	ta.Add(1, 1, 4)
	tb := spmat.NewTriplet(2, 2)
	tb.Add(0, 1, 1)
	tb.Add(1, 0, 1)
	k := Kron(ta.ToCSR(), tb.ToCSR())
	want := [][]float64{
		{0, 1, 0, 2},
		{1, 0, 2, 0},
		{0, 3, 0, 4},
		{3, 0, 4, 0},
	}
	for i := range want {
		for j := range want[i] {
			if got := k.At(i, j); got != want[i][j] {
				t.Fatalf("K(%d,%d) = %g, want %g", i, j, got, want[i][j])
			}
		}
	}
}

func TestKronOfStochasticIsStochastic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomStochasticCSR(3, rng)
	b := randomStochasticCSR(4, rng)
	if err := Kron(a, b).CheckStochastic(1e-12); err != nil {
		t.Fatal(err)
	}
}

func TestNewDescriptorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomStochasticCSR(2, rng)
	b := randomStochasticCSR(3, rng)
	if _, err := NewDescriptor(nil); err == nil {
		t.Error("empty descriptor accepted")
	}
	if _, err := NewDescriptor([]Term{{Coeff: 1}}); err == nil {
		t.Error("factorless term accepted")
	}
	if _, err := NewDescriptor([]Term{
		{Coeff: 1, Factors: []*spmat.CSR{a, b}},
		{Coeff: 1, Factors: []*spmat.CSR{b, a}},
	}); err == nil {
		t.Error("size-mismatched terms accepted")
	}
	if _, err := NewDescriptor([]Term{
		{Coeff: 1, Factors: []*spmat.CSR{a, b}},
		{Coeff: 1, Factors: []*spmat.CSR{a}},
	}); err == nil {
		t.Error("arity-mismatched terms accepted")
	}
	nonSquare := randomCSR(2, 3, 1, rng)
	if _, err := NewDescriptor([]Term{{Coeff: 1, Factors: []*spmat.CSR{nonSquare}}}); err == nil {
		t.Error("non-square factor accepted")
	}
	d, err := NewDescriptor([]Term{{Coeff: 1, Factors: []*spmat.CSR{a, b}}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Dim() != 6 || d.NumTerms() != 1 {
		t.Error("descriptor shape")
	}
	s := d.Sizes()
	if len(s) != 2 || s[0] != 2 || s[1] != 3 {
		t.Errorf("sizes = %v", s)
	}
}

func TestDescriptorVecMulMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		nc := 1 + rng.Intn(3)
		sizes := make([]int, nc)
		dim := 1
		for c := range sizes {
			sizes[c] = 2 + rng.Intn(3)
			dim *= sizes[c]
		}
		nt := 1 + rng.Intn(3)
		terms := make([]Term, nt)
		for ti := range terms {
			fs := make([]*spmat.CSR, nc)
			for c := range fs {
				fs[c] = randomCSR(sizes[c], sizes[c], 0.6, rng)
			}
			terms[ti] = Term{Coeff: rng.NormFloat64(), Factors: fs}
		}
		d, err := NewDescriptor(terms)
		if err != nil {
			t.Fatal(err)
		}
		m := d.ToCSR()
		x := make([]float64, dim)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y1 := make([]float64, dim)
		d.VecMul(y1, x)
		ref := make([]float64, dim)
		m.VecMul(ref, x)
		for i := range y1 {
			if math.Abs(y1[i]-ref[i]) > 1e-10 {
				t.Fatalf("trial %d: VecMul[%d] = %g, want %g", trial, i, y1[i], ref[i])
			}
		}
	}
}

// TestToCSRMatchesKronSum checks the materialization against
// Σ_t c_t·(F_t1 ⊗ … ⊗ F_tC) formed with Kron, on random descriptors whose
// terms overlap, one of which has a zero coefficient and one a factor
// with an empty row: the same pattern, and values to 1e−12.
func TestToCSRMatchesKronSum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		sizes := make([]int, 1+rng.Intn(3))
		for c := range sizes {
			sizes[c] = 2 + rng.Intn(4)
		}
		terms := make([]Term, 4+rng.Intn(3))
		for ti := range terms {
			fs := make([]*spmat.CSR, len(sizes))
			for c, n := range sizes {
				fs[c] = randomCSR(n, n, 0.6, rng)
			}
			terms[ti] = Term{Coeff: rng.NormFloat64(), Factors: fs}
		}
		terms[1].Coeff = 0
		// Term 2 repeats term 3's pattern with other values, so the two
		// overlap entry for entry, and has an empty row in a factor.
		c := rng.Intn(len(sizes))
		for k, f := range terms[3].Factors {
			n, _ := f.Dims()
			tr := spmat.NewTriplet(n, n)
			for i := 0; i < n; i++ {
				cols, _ := f.Row(i)
				if k == c && i == n/2 {
					continue
				}
				for _, j := range cols {
					tr.Add(i, j, rng.NormFloat64())
				}
			}
			terms[2].Factors[k] = tr.ToCSR()
		}
		d, err := NewDescriptor(terms)
		if err != nil {
			t.Fatal(err)
		}
		want := spmat.NewTriplet(d.Dim(), d.Dim())
		for _, term := range terms {
			if term.Coeff == 0 {
				continue
			}
			k := term.Factors[0]
			for _, f := range term.Factors[1:] {
				k = Kron(k, f)
			}
			for i := 0; i < d.Dim(); i++ {
				cols, vals := k.Row(i)
				for kk, j := range cols {
					want.Add(i, j, term.Coeff*vals[kk])
				}
			}
		}
		w := want.ToCSR()
		got := d.ToCSR()
		if !spmat.SamePattern(got, w) {
			t.Fatalf("trial %d: pattern differs from the Kronecker sum", trial)
		}
		if got.NNZ() > d.ExpandedNNZ() {
			t.Fatalf("trial %d: nnz %d above ExpandedNNZ %d", trial, got.NNZ(), d.ExpandedNNZ())
		}
		for k, v := range w.RawValues() {
			if g := got.RawValues()[k]; math.Abs(g-v) > 1e-12 {
				t.Fatalf("trial %d: entry %d = %g, want %g", trial, k, g, v)
			}
		}
	}
}

func TestDescriptorOfProductChain(t *testing.T) {
	// Two independent chains: P = A ⊗ B; the stationary distribution is
	// the product of component stationaries.
	rng := rand.New(rand.NewSource(4))
	a := randomStochasticCSR(3, rng)
	b := randomStochasticCSR(4, rng)
	d, err := NewDescriptor([]Term{{Coeff: 1, Factors: []*spmat.CSR{a, b}}})
	if err != nil {
		t.Fatal(err)
	}
	piA, err := spmat.StationaryGTHCSR(a)
	if err != nil {
		t.Fatal(err)
	}
	piB, err := spmat.StationaryGTHCSR(b)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := markov.NewOperator(d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ch.StationaryPower(markov.Options{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual > 1e-12 {
		t.Fatalf("power residual %g", res.Residual)
	}
	pi := res.Pi
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			want := piA[i] * piB[j]
			if got := pi[i*4+j]; math.Abs(got-want) > 1e-9 {
				t.Fatalf("pi[%d,%d] = %g, want %g", i, j, got, want)
			}
		}
	}
}

func TestDescriptorMixtureOfStochasticTermsIsStochastic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a1 := randomStochasticCSR(2, rng)
	a2 := randomStochasticCSR(2, rng)
	b1 := randomStochasticCSR(3, rng)
	b2 := randomStochasticCSR(3, rng)
	d, err := NewDescriptor([]Term{
		{Coeff: 0.3, Factors: []*spmat.CSR{a1, b1}},
		{Coeff: 0.7, Factors: []*spmat.CSR{a2, b2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ToCSR().CheckStochastic(1e-12); err != nil {
		t.Fatal(err)
	}
}

func TestVecMulPanicsOnBadDims(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randomStochasticCSR(2, rng)
	d, _ := NewDescriptor([]Term{{Coeff: 1, Factors: []*spmat.CSR{a}}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.VecMul(make([]float64, 3), make([]float64, 2))
}

func TestQuickDescriptorMatchesExplicit(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s1, s2 := 2+rng.Intn(3), 2+rng.Intn(3)
		a := randomStochasticCSR(s1, rng)
		b := randomStochasticCSR(s2, rng)
		d, err := NewDescriptor([]Term{{Coeff: 1, Factors: []*spmat.CSR{a, b}}})
		if err != nil {
			return false
		}
		explicit := Kron(a, b)
		x := make([]float64, s1*s2)
		for i := range x {
			x[i] = rng.Float64()
		}
		y1 := make([]float64, len(x))
		ref := make([]float64, len(x))
		d.VecMul(y1, x)
		explicit.VecMul(ref, x)
		for i := range y1 {
			if math.Abs(y1[i]-ref[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// CheckStochastic must accept what the assembled matrix's check accepts
// and refuse, without assembling, a descriptor whose rows do not sum to 1
// or whose terms could place a negative entry.
func TestCheckStochasticMatchesAssembled(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, b := randomStochasticCSR(3, rng), randomStochasticCSR(4, rng)
	c, e := randomStochasticCSR(3, rng), randomStochasticCSR(4, rng)
	neg := spmat.NewTriplet(4, 4)
	for i := range 4 {
		neg.Add(i, i, 1.25)
		neg.Add(i, (i+1)%4, -0.25)
	}
	// A negative coefficient is refused outright, though 2·(a⊗b) − c⊗e
	// need not assemble to a negative entry: the assembled check may pass.
	cases := []struct {
		name            string
		terms           []Term
		valid, assembly bool // the descriptor check's verdict, and whether it must match the assembled one
	}{
		{"mixture", []Term{{Coeff: 0.3, Factors: []*spmat.CSR{a, b}}, {Coeff: 0.7, Factors: []*spmat.CSR{c, e}}}, true, true},
		{"zero term", []Term{{Coeff: 1, Factors: []*spmat.CSR{a, b}}, {Coeff: 0, Factors: []*spmat.CSR{c, neg.ToCSR()}}}, true, true},
		{"row sums 1.1", []Term{{Coeff: 0.4, Factors: []*spmat.CSR{a, b}}, {Coeff: 0.7, Factors: []*spmat.CSR{c, e}}}, false, true},
		{"negative entry", []Term{{Coeff: 1, Factors: []*spmat.CSR{a, neg.ToCSR()}}}, false, true},
		{"negative coefficient", []Term{{Coeff: 2, Factors: []*spmat.CSR{a, b}}, {Coeff: -1, Factors: []*spmat.CSR{c, e}}}, false, false},
	}
	for _, tc := range cases {
		d, err := NewDescriptor(tc.terms)
		if err != nil {
			t.Fatal(err)
		}
		err = d.CheckStochastic(1e-9)
		if (err == nil) != tc.valid {
			t.Errorf("%s: CheckStochastic = %v, want valid %v", tc.name, err, tc.valid)
		}
		if assembled := d.ToCSR().CheckStochastic(1e-9); tc.assembly && (assembled == nil) != tc.valid {
			t.Errorf("%s: assembled check %v disagrees", tc.name, assembled)
		}
	}
}
