package sweep

import (
	"context"
	"math"
	"slices"
	"testing"

	"cdrstoch/internal/core"
	"cdrstoch/internal/dist"
	"cdrstoch/internal/experiments"
	"cdrstoch/internal/obs"
	"cdrstoch/internal/obs/cost"
)

// testSpec is a fast model whose TPM pattern is stable under small
// eye-jitter changes (the value-only refresh path).
func testSpec(t testing.TB, sigma float64, counterLen int) core.Spec {
	t.Helper()
	h := 1.0 / 16
	drift, err := dist.DriftPMF(dist.DriftSpec{Step: h, Max: 2 * h, Mean: h / 16, Shape: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return core.Spec{
		GridStep:          h,
		PhaseMax:          0.5,
		CorrectionStep:    2 * h,
		TransitionDensity: 0.5,
		MaxRunLength:      2,
		EyeJitter:         dist.NewGaussian(0, sigma),
		Drift:             drift,
		CounterLen:        counterLen,
		Threshold:         0.5,
	}
}

func sigmaSweep() []float64 {
	return []float64{0.050, 0.052, 0.054, 0.056, 0.058}
}

// freshPoint solves one spec in a brand-new session: the from-scratch
// reference every sweep comparison is held against.
func freshPoint(t *testing.T, spec core.Spec, opt Options) *Point {
	t.Helper()
	pt, err := New(opt).Solve(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// TestSessionRefreshByteIdentical is the satellite guarantee of the
// value-only refresh: with warm starts disabled, a continued session —
// which refreshes values into the first point's hierarchy in place — must
// produce stationary vectors byte-identical to from-scratch builds, point
// for point. Identical floating-point operations, identical bytes.
func TestSessionRefreshByteIdentical(t *testing.T) {
	opt := Options{NoWarmStart: true}
	sess := New(opt)
	for i, sigma := range sigmaSweep() {
		spec := testSpec(t, sigma, 3)
		got, err := sess.Solve(context.Background(), spec)
		if err != nil {
			t.Fatalf("sigma %g: %v", sigma, err)
		}
		if wantReuse := i > 0; got.ReusedSetup != wantReuse {
			t.Fatalf("sigma %g: ReusedSetup = %v, want %v", sigma, got.ReusedSetup, wantReuse)
		}
		if got.WarmStarted {
			t.Fatalf("sigma %g: warm start with NoWarmStart", sigma)
		}
		want := freshPoint(t, spec, opt)
		if len(want.Analysis.Pi) != len(got.Analysis.Pi) {
			t.Fatalf("sigma %g: dimension mismatch", sigma)
		}
		for j := range want.Analysis.Pi {
			if want.Analysis.Pi[j] != got.Analysis.Pi[j] {
				t.Fatalf("sigma %g: pi[%d] = %g (refresh) vs %g (fresh)",
					sigma, j, got.Analysis.Pi[j], want.Analysis.Pi[j])
			}
		}
	}
	st := sess.Stats()
	if st.Points != len(sigmaSweep()) || st.ReusedSetup != len(sigmaSweep())-1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSessionLeavesEarlierPointsMatrix checks that reusing the setup for
// a second point of the same pattern leaves the first point's TPM, which
// the session returned to its caller, as it was.
func TestSessionLeavesEarlierPointsMatrix(t *testing.T) {
	sess := New(Options{})
	spec := experiments.Fig5Spec(2)
	first, err := sess.Solve(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(first.Model.P.RawValues())
	spec.EyeJitter = dist.NewGaussian(0, 0.1)
	second, err := sess.Solve(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !second.ReusedSetup {
		t.Fatal("second point did not reuse the first point's setup")
	}
	changed := 0
	for k, v := range first.Model.P.RawValues() {
		if v != before[k] {
			changed++
		}
	}
	if changed > 0 {
		t.Errorf("solving the second point rewrote %d of the first point's %d TPM values", changed, len(before))
	}
	if slices.Equal(before, second.Model.P.RawValues()) {
		t.Fatal("the two points share their TPM values; the check proves nothing")
	}
}

// TestSessionPatternFallback covers the rebuild path: a counter-length
// change alters the state space, so the session must rebuild the
// hierarchy (ReusedSetup false) and still match from-scratch solves
// byte-identically — and a return to a previously seen pattern must not
// resurrect the stale continuation chain.
func TestSessionPatternFallback(t *testing.T) {
	opt := Options{NoWarmStart: true}
	sess := New(opt)
	for _, counter := range []int{2, 3, 2} {
		spec := testSpec(t, 0.05, counter)
		got, err := sess.Solve(context.Background(), spec)
		if err != nil {
			t.Fatalf("counter %d: %v", counter, err)
		}
		if got.ReusedSetup {
			t.Fatalf("counter %d: setup reused across pattern change", counter)
		}
		want := freshPoint(t, spec, opt)
		for j := range want.Analysis.Pi {
			if want.Analysis.Pi[j] != got.Analysis.Pi[j] {
				t.Fatalf("counter %d: pi[%d] differs after rebuild", counter, j)
			}
		}
	}
}

// TestSessionWarmStartAccuracyAndCost checks the continuation path: warm
// starts engage from the second point, every point still converges to the
// same tolerance — BER agrees with the from-scratch solve to solver
// accuracy — and the cost meter records both the warm-start flag and the
// reduced cycle counts the acceptance criteria require.
func TestSessionWarmStartAccuracyAndCost(t *testing.T) {
	sess := New(Options{})
	var coldCycles, warmCycles int64
	for i, sigma := range sigmaSweep() {
		meter := cost.NewMeter()
		ctx := obs.WithRun(context.Background(), &obs.Run{Meter: meter})
		spec := testSpec(t, sigma, 3)
		got, err := sess.Solve(ctx, spec)
		if err != nil {
			t.Fatalf("sigma %g: %v", sigma, err)
		}
		rep := meter.Finish()
		if i == 0 {
			if got.WarmStarted || rep.WarmStarted {
				t.Fatal("first point cannot be warm-started")
			}
			coldCycles = rep.Cycles
		} else {
			if !got.WarmStarted {
				t.Fatalf("sigma %g: continuation did not engage", sigma)
			}
			if !rep.WarmStarted {
				t.Fatalf("sigma %g: meter missed the warm-start mark", sigma)
			}
			if got.SeedResidual <= 0 || got.SeedResidual > 0.5 {
				t.Fatalf("sigma %g: implausible seed residual %g", sigma, got.SeedResidual)
			}
			warmCycles = rep.Cycles
			if !got.Fallback && warmCycles >= coldCycles {
				t.Errorf("sigma %g: warm-started point took %d cycles, cold took %d",
					sigma, warmCycles, coldCycles)
			}
		}
		if !got.Analysis.Multigrid.Converged {
			t.Fatalf("sigma %g: unconverged point returned", sigma)
		}
		want := freshPoint(t, spec, Options{NoWarmStart: true})
		if d := math.Abs(want.Analysis.BER - got.Analysis.BER); d > 1e-9*(want.Analysis.BER+1e-300) {
			t.Fatalf("sigma %g: BER %g (warm) vs %g (fresh), diff %g",
				sigma, got.Analysis.BER, want.Analysis.BER, d)
		}
	}
	st := sess.Stats()
	if st.WarmStarted != len(sigmaSweep())-1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSessionContextCancel checks a canceled context stops the chain with
// an error instead of a bogus point.
func TestSessionContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(Options{}).Solve(ctx, testSpec(t, 0.05, 3)); err == nil {
		t.Fatal("canceled solve returned nil error")
	}
}

// TestSessionBadSpec checks spec validation surfaces before any solver
// state is touched.
func TestSessionBadSpec(t *testing.T) {
	spec := testSpec(t, 0.05, 3)
	spec.GridStep = -1
	if _, err := New(Options{}).Solve(context.Background(), spec); err == nil {
		t.Fatal("invalid spec accepted")
	}
}
