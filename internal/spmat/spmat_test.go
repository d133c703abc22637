package spmat

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vecAlmostEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !almostEqual(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

// randomStochastic builds a random dense row-stochastic matrix with strictly
// positive entries, guaranteeing irreducibility and aperiodicity.
func randomStochastic(n int, rng *rand.Rand) *Dense {
	d := NewDense(n, n)
	for i := 0; i < n; i++ {
		sum := 0.0
		row := d.Row(i)
		for j := 0; j < n; j++ {
			row[j] = rng.Float64() + 1e-3
			sum += row[j]
		}
		for j := 0; j < n; j++ {
			row[j] /= sum
		}
	}
	return d
}

func denseToCSR(d *Dense) *CSR {
	r, c := d.Dims()
	t := NewTriplet(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if v := d.At(i, j); v != 0 {
				t.Add(i, j, v)
			}
		}
	}
	return t.ToCSR()
}

func TestTripletToCSRSumsDuplicates(t *testing.T) {
	tr := NewTriplet(2, 3)
	tr.Add(0, 1, 0.25)
	tr.Add(0, 1, 0.25)
	tr.Add(0, 0, 0.5)
	tr.Add(1, 2, 1.0)
	m := tr.ToCSR()
	if got := m.At(0, 1); got != 0.5 {
		t.Errorf("At(0,1) = %g, want 0.5", got)
	}
	if got := m.At(0, 0); got != 0.5 {
		t.Errorf("At(0,0) = %g, want 0.5", got)
	}
	if got := m.At(1, 2); got != 1.0 {
		t.Errorf("At(1,2) = %g, want 1", got)
	}
	if got := m.At(1, 0); got != 0 {
		t.Errorf("At(1,0) = %g, want 0", got)
	}
	if m.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3", m.NNZ())
	}
}

func TestTripletReserveKeepsEntries(t *testing.T) {
	tr := NewTriplet(4, 4)
	tr.Add(0, 0, 1)
	tr.Add(3, 3, 2)
	tr.Reserve(1024)
	tr.Add(1, 1, 3)
	m := tr.ToCSR()
	if m.At(0, 0) != 1 || m.At(3, 3) != 2 || m.At(1, 1) != 3 {
		t.Fatal("Reserve lost entries")
	}
}

func TestTripletOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range Add")
		}
	}()
	NewTriplet(2, 2).Add(2, 0, 1)
}

func TestNewCSRValidation(t *testing.T) {
	if _, err := NewCSR(2, 2, []int{0, 1}, []int{0}, []float64{1}); err == nil {
		t.Error("short rowPtr accepted")
	}
	if _, err := NewCSR(1, 2, []int{0, 2}, []int{1, 0}, []float64{1, 1}); err == nil {
		t.Error("non-increasing columns accepted")
	}
	if _, err := NewCSR(1, 2, []int{0, 1}, []int{5}, []float64{1}); err == nil {
		t.Error("out-of-range column accepted")
	}
	if _, err := NewCSR(1, 2, []int{0, 2}, []int{0, 1}, []float64{0.5, 0.5}); err != nil {
		t.Errorf("valid CSR rejected: %v", err)
	}
}

func TestMulVecAndVecMulAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		d := randomStochastic(n, rng)
		m := denseToCSR(d)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		yd := make([]float64, n)
		ys := make([]float64, n)
		d.MulVec(yd, x)
		m.MulVec(ys, x)
		if !vecAlmostEqual(yd, ys, 1e-12) {
			t.Fatalf("MulVec mismatch: %v vs %v", yd, ys)
		}
		d.VecMul(yd, x)
		m.VecMul(ys, x)
		if !vecAlmostEqual(yd, ys, 1e-12) {
			t.Fatalf("VecMul mismatch: %v vs %v", yd, ys)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := NewTriplet(5, 7)
	for k := 0; k < 15; k++ {
		tr.Add(rng.Intn(5), rng.Intn(7), rng.Float64())
	}
	m := tr.ToCSR()
	tt := m.Transpose().Transpose()
	if r, c := tt.Dims(); r != 5 || c != 7 {
		t.Fatalf("double transpose dims = %dx%d", r, c)
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 7; j++ {
			if !almostEqual(m.At(i, j), tt.At(i, j), 0) {
				t.Fatalf("transpose involution broken at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeMatchesVecMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randomStochastic(9, rng)
	m := denseToCSR(d)
	mt := m.Transpose()
	x := make([]float64, 9)
	for i := range x {
		x[i] = rng.Float64()
	}
	// x·A == Aᵀ·x
	y1 := make([]float64, 9)
	y2 := make([]float64, 9)
	m.VecMul(y1, x)
	mt.MulVec(y2, x)
	if !vecAlmostEqual(y1, y2, 1e-13) {
		t.Fatalf("xA != A^T x: %v vs %v", y1, y2)
	}
}

func TestRowSumsAndCheckStochastic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := denseToCSR(randomStochastic(8, rng))
	for i, s := range m.RowSums() {
		if !almostEqual(s, 1, 1e-12) {
			t.Errorf("row %d sums to %g", i, s)
		}
	}
	if err := m.CheckStochastic(1e-10); err != nil {
		t.Errorf("CheckStochastic: %v", err)
	}
	bad := NewTriplet(2, 2)
	bad.Add(0, 0, 0.7)
	bad.Add(1, 1, 1)
	if err := bad.ToCSR().CheckStochastic(1e-10); err == nil {
		t.Error("deficient row accepted")
	}
	neg := NewTriplet(1, 1)
	neg.Add(0, 0, -0.5)
	if err := neg.ToCSR().CheckStochastic(1e-10); err == nil {
		t.Error("negative entry accepted")
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	id.MulVec(y, x)
	if !reflect.DeepEqual(x, y) {
		t.Fatalf("I x = %v", y)
	}
	if err := id.CheckStochastic(0); err != nil {
		t.Fatal(err)
	}
}

func TestDiag(t *testing.T) {
	tr := NewTriplet(3, 3)
	tr.Add(0, 0, 0.5)
	tr.Add(1, 2, 1)
	tr.Add(2, 2, 0.25)
	d := tr.ToCSR().Diag()
	want := []float64{0.5, 0, 0.25}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("Diag = %v, want %v", d, want)
	}
}

func TestLUSolveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(10)
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Add(i, i, float64(n)) // diagonal dominance: nonsingular
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		a.MulVec(b, want)
		lu, err := Factorize(a)
		if err != nil {
			t.Fatal(err)
		}
		got := lu.Solve(b)
		if !vecAlmostEqual(got, want, 1e-9) {
			t.Fatalf("LU solve: got %v want %v", got, want)
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := Factorize(a); err == nil {
		t.Fatal("singular matrix factored")
	}
}

func TestGTHTwoState(t *testing.T) {
	// Birth-death 2-state chain with known stationary distribution:
	// P = [[1-a, a], [b, 1-b]], pi = (b, a)/(a+b).
	a, b := 0.3, 0.1
	p := NewDense(2, 2)
	p.Set(0, 0, 1-a)
	p.Set(0, 1, a)
	p.Set(1, 0, b)
	p.Set(1, 1, 1-b)
	pi, err := StationaryGTH(p)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{b / (a + b), a / (a + b)}
	if !vecAlmostEqual(pi, want, 1e-14) {
		t.Fatalf("pi = %v, want %v", pi, want)
	}
}

func TestGTHMatchesPowerIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(15)
		p := randomStochastic(n, rng)
		pi, err := StationaryGTH(p)
		if err != nil {
			t.Fatal(err)
		}
		// Long power iteration as an independent reference.
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = 1 / float64(n)
		}
		for it := 0; it < 20000; it++ {
			p.VecMul(y, x)
			x, y = y, x
		}
		if !vecAlmostEqual(pi, x, 1e-10) {
			t.Fatalf("GTH %v vs power %v", pi, x)
		}
	}
}

func TestGTHPreservesTinyMass(t *testing.T) {
	// A chain engineered so one state has stationary mass ~1e-12; GTH must
	// resolve it without catastrophic cancellation.
	eps := 1e-12
	p := NewDense(2, 2)
	p.Set(0, 0, 1-eps)
	p.Set(0, 1, eps)
	p.Set(1, 0, 1)
	pi, err := StationaryGTH(p)
	if err != nil {
		t.Fatal(err)
	}
	want := eps / (1 + eps)
	if rel := math.Abs(pi[1]-want) / want; rel > 1e-12 {
		t.Fatalf("tiny mass rel error %g", rel)
	}
}

func TestGTHRejectsReducible(t *testing.T) {
	p := NewDense(2, 2)
	p.Set(0, 0, 1)
	p.Set(1, 1, 1)
	if _, err := StationaryGTH(p); err == nil {
		t.Fatal("reducible chain accepted")
	}
}

func TestGTHCSRWrapper(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := randomStochastic(6, rng)
	piD, err := StationaryGTH(d)
	if err != nil {
		t.Fatal(err)
	}
	piS, err := StationaryGTHCSR(denseToCSR(d))
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEqual(piD, piS, 1e-14) {
		t.Fatal("CSR wrapper disagrees with dense GTH")
	}
}

// Property: the stationary vector returned by GTH satisfies pi P = pi and
// sums to 1, for arbitrary random positive stochastic matrices.
func TestQuickGTHFixedPoint(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 2 + int(sz%14)
		rng := rand.New(rand.NewSource(seed))
		p := randomStochastic(n, rng)
		pi, err := StationaryGTH(p)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, v := range pi {
			if v < 0 {
				return false
			}
			sum += v
		}
		if !almostEqual(sum, 1, 1e-12) {
			return false
		}
		y := make([]float64, n)
		p.VecMul(y, pi)
		return vecAlmostEqual(y, pi, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: triplet assembly then CSR expansion is lossless with respect to
// summed duplicate coordinates.
func TestQuickTripletRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		ref := NewDense(r, c)
		tr := NewTriplet(r, c)
		for k := 0; k < rng.Intn(40); k++ {
			i, j, v := rng.Intn(r), rng.Intn(c), rng.NormFloat64()
			ref.Add(i, j, v)
			tr.Add(i, j, v)
		}
		m := tr.ToCSR()
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if !almostEqual(m.At(i, j), ref.At(i, j), 1e-12) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
