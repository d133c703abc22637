package markov

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cdrstoch/internal/kron"
	"cdrstoch/internal/obs"
	"cdrstoch/internal/obs/cost"
	"cdrstoch/internal/spmat"
)

func randomStochastic(n int, rng *rand.Rand) *spmat.CSR {
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

// testDescriptor builds a two-term mixture of three-factor products — a
// descriptor with genuine multi-term structure — plus its materialized
// CSR for the explicit reference chain.
func testDescriptor(t *testing.T, seed int64) (*kron.Descriptor, *spmat.CSR) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mk := func() []*spmat.CSR {
		return []*spmat.CSR{
			randomStochastic(3, rng),
			randomStochastic(4, rng),
			randomStochastic(2, rng),
		}
	}
	d, err := kron.NewDescriptor([]kron.Term{
		{Coeff: 0.35, Factors: mk()},
		{Coeff: 0.65, Factors: mk()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, d.ToCSR()
}

func TestNewOperatorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Non-stochastic operator (coeff 0.5 mixture sums rows to 0.5).
	bad, err := kron.NewDescriptor([]kron.Term{
		{Coeff: 0.5, Factors: []*spmat.CSR{randomStochastic(3, rng)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewOperator(bad); err == nil {
		t.Fatal("non-stochastic operator accepted")
	}
	// The CSR path delegates to New and keeps the explicit backend.
	p := randomStochastic(3, rng)
	ch, err := NewOperator(p)
	if err != nil {
		t.Fatal(err)
	}
	if ch.P() != p {
		t.Fatal("CSR operator did not keep explicit backend")
	}
}

func TestOperatorChainParity(t *testing.T) {
	d, p := testDescriptor(t, 12)
	implicit, err := NewOperator(d)
	if err != nil {
		t.Fatal(err)
	}
	if implicit.P() != nil {
		t.Fatal("matrix-free chain exposes a CSR")
	}
	explicit, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := explicit.StationaryDirect()
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, pi []float64) {
		t.Helper()
		for i := range ref {
			if math.Abs(pi[i]-ref[i]) > 1e-12 {
				t.Fatalf("%s: pi[%d] = %g, want %g (diff %g)",
					name, i, pi[i], ref[i], pi[i]-ref[i])
			}
		}
	}
	opt := Options{Tol: 1e-14, Damping: 0.9}
	res, err := implicit.StationaryPower(opt)
	if err != nil {
		t.Fatal(err)
	}
	check("power", res.Pi)
	res, err = implicit.StationaryJacobi(opt)
	if err != nil {
		t.Fatal(err)
	}
	check("jacobi", res.Pi)
	gres, err := implicit.StationaryGMRES(GMRESOptions{Tol: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	check("gmres", gres.Pi)

	// Step and Residual run through the operator too.
	x := implicit.Uniform()
	y1 := implicit.Step(nil, x)
	y2 := explicit.Step(nil, x)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-13 {
			t.Fatalf("Step[%d] = %g, want %g", i, y1[i], y2[i])
		}
	}
	if r := implicit.Residual(res.Pi); r > 1e-12 {
		t.Fatalf("Residual(pi) = %g", r)
	}
}

func TestOperatorChainExplicitOnlySolvers(t *testing.T) {
	d, _ := testDescriptor(t, 13)
	ch, err := NewOperator(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.StationaryGaussSeidel(Options{}); err == nil {
		t.Fatal("Gauss-Seidel on matrix-free chain succeeded")
	}
	if _, err := ch.StationaryDirect(); err == nil {
		t.Fatal("direct solve on matrix-free chain succeeded")
	}
	if _, err := ch.GroupInverse(ch.Uniform()); err == nil {
		t.Fatal("group inverse on matrix-free chain succeeded")
	}
}

// TestOperatorChainStructure runs the five structural queries on a
// matrix-free chain, which walk the descriptor's materialization, against
// the explicit chain of the same matrix.
func TestOperatorChainStructure(t *testing.T) {
	d, _ := testDescriptor(t, 13)
	implicit, err := NewOperator(d)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := New(d.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := implicit.SCCs(), explicit.SCCs(); !reflect.DeepEqual(got, want) {
		t.Errorf("SCCs = %v, want %v", got, want)
	}
	if got, want := implicit.RecurrentClasses(), explicit.RecurrentClasses(); !reflect.DeepEqual(got, want) {
		t.Errorf("RecurrentClasses = %v, want %v", got, want)
	}
	if got, want := implicit.Period(), explicit.Period(); got != want {
		t.Errorf("Period = %d, want %d", got, want)
	}
	if got, want := implicit.IsIrreducible(), explicit.IsIrreducible(); got != want {
		t.Errorf("IsIrreducible = %v, want %v", got, want)
	}
	if got, want := implicit.IsErgodic(), explicit.IsErgodic(); got != want {
		t.Errorf("IsErgodic = %v, want %v", got, want)
	}
}

// Matrix-free products are attributed to the pool's SpMV counters via
// CountExternal, so cost accounting covers implicit solves.
func TestOperatorChainCostAccounting(t *testing.T) {
	d, _ := testDescriptor(t, 14)
	ch, err := NewOperator(d)
	if err != nil {
		t.Fatal(err)
	}
	ws := &Workspace{Pool: spmat.NewPool(1)}
	meter := cost.NewMeter()
	ctx := obs.WithRun(context.Background(), &obs.Run{Meter: meter})
	res, err := ch.StationaryPower(Options{Tol: 1e-12, Damping: 0.9, Ws: ws, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	stats := ws.Pool.Stats()
	if stats.SpMVs < int64(res.Iterations) {
		t.Fatalf("SpMVs %d < iterations %d", stats.SpMVs, res.Iterations)
	}
	if stats.NNZ < int64(res.Iterations)*d.OpsPerMul() {
		t.Fatalf("NNZ %d below %d products of %d ops", stats.NNZ, res.Iterations, d.OpsPerMul())
	}
	rep := meter.Finish()
	if rep.Pool.SpMVs != stats.SpMVs {
		t.Fatalf("meter SpMVs %d, pool %d", rep.Pool.SpMVs, stats.SpMVs)
	}
}

func TestOperatorChainCancellation(t *testing.T) {
	d, _ := testDescriptor(t, 15)
	ch, err := NewOperator(d)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ch.StationaryPower(Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("power: err = %v", err)
	}
	if _, err := ch.StationaryJacobi(Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("jacobi: err = %v", err)
	}
	if _, err := ch.StationaryGMRES(GMRESOptions{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("gmres: err = %v", err)
	}
}
