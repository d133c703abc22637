package markov

import (
	"context"
	"testing"

	"cdrstoch/internal/obs"
	"cdrstoch/internal/obs/cost"
)

// TestStationarySolversFeedMeter pins the cost wiring across the three
// fixed-point solvers: sweeps, residuals, and pool kernel counts land on
// the context's meter.
func TestStationarySolversFeedMeter(t *testing.T) {
	c := twoState(t, 0.3, 0.1)
	for name, solve := range map[string]func(Options) (Result, error){
		"power":        c.StationaryPower,
		"jacobi":       c.StationaryJacobi,
		"gauss-seidel": c.StationaryGaussSeidel,
	} {
		meter := cost.NewMeter()
		res, err := solve(Options{Tol: 1e-12, Ctx: obs.WithRun(context.Background(), &obs.Run{Meter: meter})})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep := meter.Finish()
		if rep.Sweeps != int64(res.Iterations) {
			t.Errorf("%s: meter sweeps = %d, want %d", name, rep.Sweeps, res.Iterations)
		}
		if rep.FinalResidual != res.Residual {
			t.Errorf("%s: meter residual = %g, want %g", name, rep.FinalResidual, res.Residual)
		}
		if rep.Pool.SpMVs == 0 && rep.Pool.RowSweeps == 0 {
			t.Errorf("%s: meter pool counters empty: %+v", name, rep.Pool)
		}
	}
}

// TestGMRESFeedsMeterRestarts checks GMRES attributes matvec sweeps and
// per-restart residuals.
func TestGMRESFeedsMeterRestarts(t *testing.T) {
	c := twoState(t, 0.3, 0.1)
	meter := cost.NewMeter()
	res, err := c.StationaryGMRES(GMRESOptions{Tol: 1e-13,
		Ctx: obs.WithRun(context.Background(), &obs.Run{Meter: meter})})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged: %+v", res)
	}
	rep := meter.Finish()
	if rep.Restarts < 1 {
		t.Errorf("meter restarts = %d, want >= 1", rep.Restarts)
	}
	if rep.Sweeps != int64(res.Iterations) {
		t.Errorf("meter sweeps = %d, want %d matvecs", rep.Sweeps, res.Iterations)
	}
	if rep.FinalResidual != res.Residual {
		t.Errorf("meter residual = %g, want %g", rep.FinalResidual, res.Residual)
	}
	if len(rep.ResidualTail) == 0 {
		t.Error("no per-restart residual tail")
	}
}

// TestSolversUnmeteredStillWork guards the disabled path: a bare context
// (no meter) is not an error and changes no results.
func TestSolversUnmeteredStillWork(t *testing.T) {
	c := twoState(t, 0.3, 0.1)
	plain, err := c.StationaryPower(Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := c.StationaryPower(Options{Tol: 1e-12, Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(plain.Pi, ctxed.Pi) != 0 || plain.Iterations != ctxed.Iterations {
		t.Error("bare context changed the solve")
	}
}
