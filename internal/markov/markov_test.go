package markov

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cdrstoch/internal/spmat"
)

// chainFromRows builds a chain from dense row data.
func chainFromRows(t testing.TB, rows [][]float64) *Chain {
	t.Helper()
	n := len(rows)
	tr := spmat.NewTriplet(n, n)
	for i, row := range rows {
		if len(row) != n {
			t.Fatalf("row %d has %d entries", i, len(row))
		}
		for j, v := range row {
			if v != 0 {
				tr.Add(i, j, v)
			}
		}
	}
	c, err := New(tr.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randomChain(t testing.TB, n int, rng *rand.Rand) *Chain {
	t.Helper()
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, n)
		s := 0.0
		for j := range rows[i] {
			rows[i][j] = rng.Float64() + 1e-3
			s += rows[i][j]
		}
		for j := range rows[i] {
			rows[i][j] /= s
		}
	}
	return chainFromRows(t, rows)
}

// twoState returns the chain [[1-a,a],[b,1-b]] with stationary (b,a)/(a+b).
func twoState(t testing.TB, a, b float64) *Chain {
	return chainFromRows(t, [][]float64{{1 - a, a}, {b, 1 - b}})
}

func wantTwoState(a, b float64) []float64 {
	return []float64{b / (a + b), a / (a + b)}
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

func TestNewRejectsNonStochastic(t *testing.T) {
	tr := spmat.NewTriplet(2, 2)
	tr.Add(0, 0, 0.5)
	tr.Add(1, 1, 1)
	if _, err := New(tr.ToCSR()); err == nil {
		t.Fatal("non-stochastic accepted")
	}
}

func TestSolversAgreeOnTwoState(t *testing.T) {
	a, b := 0.3, 0.1
	c := twoState(t, a, b)
	want := wantTwoState(a, b)
	opt := Options{Tol: 1e-13}

	pw, err := c.StationaryPower(opt)
	if err != nil || !pw.Converged {
		t.Fatalf("power: %v %+v", err, pw)
	}
	ja, err := c.StationaryJacobi(Options{Tol: 1e-13, Damping: 0.7})
	if err != nil || !ja.Converged {
		t.Fatalf("jacobi: %v %+v", err, ja)
	}
	gs, err := c.StationaryGaussSeidel(opt)
	if err != nil || !gs.Converged {
		t.Fatalf("gs: %v %+v", err, gs)
	}
	di, err := c.StationaryDirect()
	if err != nil {
		t.Fatal(err)
	}
	for name, pi := range map[string][]float64{"power": pw.Pi, "jacobi": ja.Pi, "gs": gs.Pi, "gth": di} {
		if d := maxAbsDiff(pi, want); d > 1e-10 {
			t.Errorf("%s off by %g: %v", name, d, pi)
		}
	}
}

func TestPowerDampingHandlesPeriodicChain(t *testing.T) {
	// Two-state flip chain: period 2; undamped power iteration from a
	// non-uniform start oscillates forever.
	c := chainFromRows(t, [][]float64{{0, 1}, {1, 0}})
	x0 := []float64{0.9, 0.1}
	und, err := c.StationaryPower(Options{Tol: 1e-12, MaxIter: 500, X0: x0})
	if err != nil {
		t.Fatal(err)
	}
	if und.Converged {
		t.Fatal("undamped power should not converge on a period-2 chain from a biased start")
	}
	dam, err := c.StationaryPower(Options{Tol: 1e-12, MaxIter: 5000, X0: x0, Damping: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !dam.Converged {
		t.Fatalf("damped power failed: %+v", dam)
	}
	if d := maxAbsDiff(dam.Pi, []float64{0.5, 0.5}); d > 1e-10 {
		t.Errorf("damped power off by %g", d)
	}
}

func TestJacobiGSRejectAbsorbing(t *testing.T) {
	c := chainFromRows(t, [][]float64{{1, 0}, {0.5, 0.5}})
	if _, err := c.StationaryJacobi(Options{}); err == nil {
		t.Error("Jacobi accepted absorbing state")
	}
	if _, err := c.StationaryGaussSeidel(Options{}); err == nil {
		t.Error("GS accepted absorbing state")
	}
}

func TestX0Validation(t *testing.T) {
	c := twoState(t, 0.2, 0.3)
	if _, err := c.StationaryPower(Options{X0: []float64{1, 2, 3}}); err == nil {
		t.Error("bad X0 length accepted")
	}
	if _, err := c.StationaryPower(Options{X0: []float64{0, 0}}); err == nil {
		t.Error("zero X0 accepted")
	}
}

func TestStepAndResidual(t *testing.T) {
	c := twoState(t, 0.3, 0.1)
	pi := wantTwoState(0.3, 0.1)
	if r := c.Residual(pi); r > 1e-15 {
		t.Errorf("residual at stationary = %g", r)
	}
	x := []float64{1, 0}
	y := c.Step(nil, x)
	if math.Abs(y[0]-0.7) > 1e-15 || math.Abs(y[1]-0.3) > 1e-15 {
		t.Errorf("step = %v", y)
	}
}

func TestSCCsAndRecurrentClasses(t *testing.T) {
	// States 0,1 communicate; state 2 is absorbing; 0->2 leaks.
	c := chainFromRows(t, [][]float64{
		{0.5, 0.4, 0.1},
		{1, 0, 0},
		{0, 0, 1},
	})
	comps := c.SCCs()
	if len(comps) != 2 {
		t.Fatalf("SCC count = %d, want 2", len(comps))
	}
	rec := c.RecurrentClasses()
	if len(rec) != 1 || len(rec[0]) != 1 || rec[0][0] != 2 {
		t.Fatalf("recurrent classes = %v", rec)
	}
	if c.IsIrreducible() {
		t.Error("reducible chain reported irreducible")
	}
	if c.Period() != 0 {
		t.Error("period of reducible chain should be 0")
	}
}

func TestPeriod(t *testing.T) {
	// 3-cycle: period 3.
	cyc := chainFromRows(t, [][]float64{{0, 1, 0}, {0, 0, 1}, {1, 0, 0}})
	if p := cyc.Period(); p != 3 {
		t.Errorf("cycle period = %d, want 3", p)
	}
	if cyc.IsErgodic() {
		t.Error("periodic chain reported ergodic")
	}
	// Self-loop makes it aperiodic.
	ap := chainFromRows(t, [][]float64{{0.5, 0.5, 0}, {0, 0, 1}, {1, 0, 0}})
	if p := ap.Period(); p != 1 {
		t.Errorf("aperiodic chain period = %d", p)
	}
	if !ap.IsErgodic() {
		t.Error("ergodic chain not recognized")
	}
}

func TestSCCsLargeChainIterative(t *testing.T) {
	// A long path with a back edge: single SCC of size n. Exercises the
	// explicit-stack Tarjan on a deep graph (recursion would overflow for
	// much larger n; here we verify correctness on a deep-but-feasible one).
	n := 20000
	tr := spmat.NewTriplet(n, n)
	for i := 0; i < n-1; i++ {
		tr.Add(i, i+1, 1)
	}
	tr.Add(n-1, 0, 1)
	c, err := New(tr.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	comps := c.SCCs()
	if len(comps) != 1 || len(comps[0]) != n {
		t.Fatalf("got %d comps", len(comps))
	}
	if p := c.Period(); p != n {
		t.Fatalf("pure cycle period = %d, want %d", p, n)
	}
}

func TestExpectation(t *testing.T) {
	pi := []float64{0.25, 0.25, 0.5}
	f := []float64{0, 1, 2}
	mu, err := Expectation(pi, f)
	if err != nil || math.Abs(mu-1.25) > 1e-15 {
		t.Fatalf("E = %g err=%v", mu, err)
	}
	if _, err := Expectation(pi, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestAutocovarianceIIDChainIsDelta(t *testing.T) {
	// All rows equal: X_k i.i.d., so r(k)=0 for k>=1.
	c := chainFromRows(t, [][]float64{
		{0.2, 0.3, 0.5},
		{0.2, 0.3, 0.5},
		{0.2, 0.3, 0.5},
	})
	pi := []float64{0.2, 0.3, 0.5}
	f := []float64{-1, 0, 2}
	cov, err := c.Autocovariance(pi, f, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cov[0] <= 0 {
		t.Fatal("variance must be positive")
	}
	for k := 1; k <= 4; k++ {
		if math.Abs(cov[k]) > 1e-14 {
			t.Errorf("r(%d) = %g, want 0", k, cov[k])
		}
	}
}

func TestAutocorrelationTwoStateGeometric(t *testing.T) {
	// For the two-state chain, the autocorrelation of any non-degenerate f
	// is (1-a-b)^k.
	a, b := 0.3, 0.2
	c := twoState(t, a, b)
	pi := wantTwoState(a, b)
	f := []float64{0, 1}
	rho, err := c.Autocorrelation(pi, f, 6)
	if err != nil {
		t.Fatal(err)
	}
	lambda := 1 - a - b
	for k := 0; k <= 6; k++ {
		want := math.Pow(lambda, float64(k))
		if math.Abs(rho[k]-want) > 1e-12 {
			t.Errorf("rho(%d) = %g, want %g", k, rho[k], want)
		}
	}
}

func TestAutocorrelationDegenerate(t *testing.T) {
	c := twoState(t, 0.3, 0.2)
	pi := wantTwoState(0.3, 0.2)
	if _, err := c.Autocorrelation(pi, []float64{5, 5}, 3); err == nil {
		t.Error("constant f accepted")
	}
	if _, err := c.Autocovariance(pi, []float64{1, 2}, -1); err == nil {
		t.Error("negative lag accepted")
	}
}

func TestTotalVariationAndMixing(t *testing.T) {
	tv, err := TotalVariation([]float64{1, 0}, []float64{0, 1})
	if err != nil || tv != 1 {
		t.Fatalf("TV = %g", tv)
	}
	if _, err := TotalVariation([]float64{1}, []float64{0, 1}); err == nil {
		t.Error("TV length mismatch accepted")
	}
	c := twoState(t, 0.3, 0.2)
	pi := wantTwoState(0.3, 0.2)
	k, err := c.MixingTime([]float64{1, 0}, pi, 1e-6, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// TV decays like 0.5^k; need about log(eps)/log(0.5) ≈ 20 steps.
	if k < 5 || k > 60 {
		t.Errorf("mixing time = %d", k)
	}
	if k2, _ := c.MixingTime(pi, pi, 1e-9, 10); k2 != 0 {
		t.Errorf("mixing from stationary = %d", k2)
	}
}

func TestQuickAllSolversMatchGTH(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(sz%12)
		c := randomChain(t, n, rng)
		ref, err := c.StationaryDirect()
		if err != nil {
			return false
		}
		opt := Options{Tol: 1e-13, MaxIter: 200000}
		pw, err1 := c.StationaryPower(opt)
		ja, err2 := c.StationaryJacobi(Options{Tol: 1e-13, MaxIter: 200000, Damping: 0.8})
		gs, err3 := c.StationaryGaussSeidel(opt)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return maxAbsDiff(pw.Pi, ref) < 1e-9 &&
			maxAbsDiff(ja.Pi, ref) < 1e-9 &&
			maxAbsDiff(gs.Pi, ref) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStationaryIsFixedPoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomChain(t, 2+rng.Intn(10), rng)
		res, err := c.StationaryGaussSeidel(Options{Tol: 1e-13})
		if err != nil || !res.Converged {
			return false
		}
		return c.Residual(res.Pi) < 1e-11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
