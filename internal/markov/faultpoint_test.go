package markov_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"cdrstoch/internal/faults"
	"cdrstoch/internal/markov"
	"cdrstoch/internal/obs"
	"cdrstoch/internal/spmat"
)

// TestFaultPointsStopSolvers arms the solvers' two registered injection
// points, markov.sweep and gmres.restart, through a run's fault hook:
// with error:after=2 the third iteration's probe fires, and each solver
// must stop there with an error that wraps faults.ErrInjected and states
// its partial progress. The seed comes from CDR_FAULTS_SEED, like the
// service chaos suite's.
func TestFaultPointsStopSolvers(t *testing.T) {
	seed := int64(1)
	if v := os.Getenv("CDR_FAULTS_SEED"); v != "" {
		var err error
		if seed, err = strconv.ParseInt(v, 10, 64); err != nil {
			t.Fatalf("CDR_FAULTS_SEED=%q: %v", v, err)
		}
	}
	// A lazy ring stepping backward, started far from its uniform
	// stationary vector with an unreachable tolerance: no solver converges
	// before the fault fires.
	const n = 64
	tri := spmat.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		tri.Add(i, i, 0.4)
		tri.Add(i, (i+n-1)%n, 0.35)
		tri.Add(i, (i+n-2)%n, 0.25)
	}
	ch, err := markov.New(tri.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = float64(i + 1)
	}
	const restart = 10
	cases := []struct {
		name, point string
		// progress is the "stopped after" count of the third iteration:
		// three sweeps, or three restarts of restart+1 products each.
		progress string
		solve    func(ctx context.Context) (markov.Result, error)
	}{
		{"power", "markov.sweep", "3 sweeps", func(ctx context.Context) (markov.Result, error) {
			return ch.StationaryPower(markov.Options{Ctx: ctx, X0: x0, Tol: 1e-300, MaxIter: 500})
		}},
		{"jacobi", "markov.sweep", "3 sweeps", func(ctx context.Context) (markov.Result, error) {
			return ch.StationaryJacobi(markov.Options{Ctx: ctx, X0: x0, Tol: 1e-300, MaxIter: 500})
		}},
		{"gauss-seidel", "markov.sweep", "3 sweeps", func(ctx context.Context) (markov.Result, error) {
			return ch.StationaryGaussSeidel(markov.Options{Ctx: ctx, X0: x0, Tol: 1e-300, MaxIter: 500})
		}},
		{"gmres", "gmres.restart", fmt.Sprintf("%d matvecs", 3*(restart+1)), func(ctx context.Context) (markov.Result, error) {
			return ch.StationaryGMRES(markov.GMRESOptions{Ctx: ctx, X0: x0, Tol: 1e-300, MaxIter: 500, Restart: restart})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			inj, err := faults.Parse(tc.point+":error:after=2", seed, reg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tc.solve(obs.WithRun(context.Background(), &obs.Run{Fault: inj.FireCtx}))
			if !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("err = %v, want an injected fault", err)
			}
			if want := "stopped after " + tc.progress; !strings.Contains(err.Error(), want) {
				t.Errorf("error %q lacks %q", err, want)
			}
			if res.Converged || res.Pi == nil {
				t.Errorf("stopped solve: converged=%v, partial iterate kept=%v", res.Converged, res.Pi != nil)
			}
			if fired := reg.Counter("faults.fired." + tc.point).Value(); fired != 1 {
				t.Errorf("faults.fired.%s = %d, want 1", tc.point, fired)
			}
		})
	}
}
