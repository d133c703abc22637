package passage

import (
	"context"
	"errors"
	"testing"

	"cdrstoch/internal/obs"
	"cdrstoch/internal/obs/cost"
	"cdrstoch/internal/spmat"
)

// trapChain builds the two-survivor-plus-trap chain used across the QS
// tests: survivors {0,1} leak mass eps per step into absorbing state 2.
func trapChain(a, b, eps float64) (*spmat.CSR, []bool) {
	tr := spmat.NewTriplet(3, 3)
	tr.Add(0, 0, (1-eps)*(1-a))
	tr.Add(0, 1, (1-eps)*a)
	tr.Add(0, 2, eps)
	tr.Add(1, 0, (1-eps)*b)
	tr.Add(1, 1, (1-eps)*(1-b))
	tr.Add(1, 2, eps)
	tr.Add(2, 2, 1)
	return tr.ToCSR(), []bool{false, false, true}
}

// TestQuasiStationaryFeedsMeter pins the QS cost wiring: sweeps,
// residual, and kernel counts land on the context's meter.
func TestQuasiStationaryFeedsMeter(t *testing.T) {
	p, target := trapChain(0.3, 0.2, 0.01)
	meter := cost.NewMeter()
	res, err := QuasiStationaryOpt(p, target, QSOptions{Tol: 1e-13, MaxIter: 100000,
		Ctx: obs.WithRun(context.Background(), &obs.Run{Meter: meter})})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged: %+v", res)
	}
	rep := meter.Finish()
	if rep.Sweeps != int64(res.Iterations) {
		t.Errorf("meter sweeps = %d, want %d", rep.Sweeps, res.Iterations)
	}
	if rep.FinalResidual <= 0 || rep.FinalResidual > 1e-13 {
		t.Errorf("meter residual = %g", rep.FinalResidual)
	}
	if rep.Pool.SpMVs < int64(res.Iterations) {
		t.Errorf("meter SpMVs = %d, want >= %d sweeps", rep.Pool.SpMVs, res.Iterations)
	}
}

// TestQuasiStationaryHonorsContext checks the new cancellation support:
// a canceled context stops the solve with partial progress and an error
// wrapping ctx.Err, and the meter still receives the sweeps done so far.
func TestQuasiStationaryHonorsContext(t *testing.T) {
	p, target := trapChain(0.3, 0.2, 0.01)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	meter := cost.NewMeter()
	res, err := QuasiStationaryOpt(p, target, QSOptions{Tol: 1e-13,
		Ctx: obs.WithRun(ctx, &obs.Run{Meter: meter})})
	if err == nil {
		t.Fatal("canceled solve returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
	if res.Converged {
		t.Error("canceled solve claims convergence")
	}
	if res.Nu == nil {
		t.Error("no partial distribution on cancellation")
	}
	rep := meter.Finish()
	if rep.Sweeps != int64(res.Iterations) {
		t.Errorf("meter sweeps = %d, want %d", rep.Sweeps, res.Iterations)
	}
}

// TestQuasiStationaryPlainContext ensures an uncanceled bare context
// changes nothing.
func TestQuasiStationaryPlainContext(t *testing.T) {
	p, target := trapChain(0.3, 0.2, 0.01)
	plain, err := QuasiStationary(p, target, 1e-13, 100000)
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := QuasiStationaryOpt(p, target, QSOptions{Tol: 1e-13, MaxIter: 100000,
		Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Iterations != ctxed.Iterations || plain.Lambda != ctxed.Lambda {
		t.Errorf("bare context changed the solve: %+v vs %+v", plain, ctxed)
	}
}
