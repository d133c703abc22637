package markov

import (
	"context"
	"errors"
	"strings"
	"testing"

	"cdrstoch/internal/obs"
	"cdrstoch/internal/spmat"
)

// cancelAtIter is a Tracer that cancels a context the first time it sees
// an "iter" event at or past trigger, recording every event — the same
// differential pattern as multigrid's cancellation test. FiredAt keeps
// the Iter value that pulled the trigger so the cadence assertion can be
// exact even for solvers whose Iter counts jump (GMRES counts matvecs).
type cancelAtIter struct {
	*obs.Collector
	cancel  context.CancelFunc
	trigger int
	firedAt int
}

func (c *cancelAtIter) Emit(e obs.Event) {
	c.Collector.Emit(e)
	if e.Kind == "iter" && e.Iter >= c.trigger && c.firedAt == 0 {
		c.firedAt = e.Iter
		c.cancel()
	}
}

// TestStationaryCancellationCadence checks every stationary solver loop
// observes ctx.Done() within one outer iteration: after the iteration
// that saw the cancellation, no further "iter" event may appear — the
// probe that reported it must stop the solve.
func TestStationaryCancellationCadence(t *testing.T) {
	// A two-step lazy ring stepping BACKWARD: a forward Gauss–Seidel
	// sweep then only reads not-yet-updated states (state i's mass comes
	// from i+1 and i+2), so it contracts slowly like Jacobi. A forward
	// ring would let one in-sweep substitution chain solve the system to
	// machine exactness within two sweeps, converging before the
	// cancellation trigger.
	const n = 64
	tri := spmat.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		tri.Add(i, i, 0.4)
		tri.Add(i, (i+n-1)%n, 0.35)
		tri.Add(i, (i+n-2)%n, 0.25)
	}
	ch, err := New(tri.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	// The lazy ring's stationary vector is uniform — the solvers' default
	// start — so convergence would be instant. A concentrated X0 plus an
	// unreachable tolerance keeps every loop iterating until the
	// cancellation is the only way out.
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = float64(i + 1) // strictly positive, far from uniform
	}
	solvers := map[string]func(ctx context.Context) (Result, error){
		"power": func(ctx context.Context) (Result, error) {
			return ch.StationaryPower(Options{Ctx: ctx, X0: x0, Tol: 1e-300, MaxIter: 500})
		},
		"jacobi": func(ctx context.Context) (Result, error) {
			return ch.StationaryJacobi(Options{Ctx: ctx, X0: x0, Tol: 1e-300, MaxIter: 500})
		},
		"gauss-seidel": func(ctx context.Context) (Result, error) {
			return ch.StationaryGaussSeidel(Options{Ctx: ctx, X0: x0, Tol: 1e-300, MaxIter: 500})
		},
		"gmres": func(ctx context.Context) (Result, error) {
			return ch.StationaryGMRES(GMRESOptions{Ctx: ctx, X0: x0, Tol: 1e-300, MaxIter: 500, Restart: 10})
		},
	}
	for name, solve := range solvers {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			tr := &cancelAtIter{Collector: obs.NewCollector(nil), cancel: cancel, trigger: 3}
			res, err := solve(obs.WithRun(ctx, &obs.Run{Sink: tr}))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if !strings.Contains(err.Error(), "stopped after") {
				t.Errorf("error lacks partial progress: %v", err)
			}
			if res.Converged {
				t.Error("canceled solve reported converged")
			}
			if tr.firedAt == 0 {
				t.Fatal("the trigger iteration never ran")
			}
			for _, e := range tr.Events() {
				if e.Kind == "iter" && e.Iter > tr.firedAt {
					t.Errorf("%s iterated past the cancellation (trigger %d): %+v", name, tr.firedAt, e)
				}
			}
		})
	}
}
