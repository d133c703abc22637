package multigrid

import (
	"context"
	"errors"
	"testing"

	"cdrstoch/internal/obs"
)

// cancelAfterIter is a Tracer that cancels a context as soon as it sees
// the "iter" event of the given cycle, while recording every event.
type cancelAfterIter struct {
	*obs.Collector
	cancel context.CancelFunc
	cycle  int
}

func (c *cancelAfterIter) Emit(e obs.Event) {
	c.Collector.Emit(e)
	if e.Kind == "iter" && e.Iter >= c.cycle {
		c.cancel()
	}
}

func TestSolveCanceledStopsWithinOneCycle(t *testing.T) {
	p := randomWalkChain(256, 0.3, 0.2)
	parts, err := BuildPairHierarchy(256, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &cancelAfterIter{Collector: obs.NewCollector(nil), cancel: cancel, cycle: 2}
	s, err := New(p, parts, Config{Tol: 1e-300, MaxCycles: 50, Ctx: obs.WithRun(ctx, &obs.Run{Sink: tr})})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Solve(nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The context was canceled while cycle 2's residual event was emitted;
	// the solver must not start another cycle: no "iter" event beyond 2.
	for _, e := range tr.Events() {
		if e.Kind == "iter" && e.Iter > 2 {
			t.Errorf("iteration traced after cancellation: %+v", e)
		}
	}
}

func TestSolveExpiredContext(t *testing.T) {
	p := randomWalkChain(64, 0.3, 0.2)
	parts, err := BuildPairHierarchy(64, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired before the first cycle
	s, err := New(p, parts, Config{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestSolveNilContextUnaffected(t *testing.T) {
	p := randomWalkChain(64, 0.3, 0.2)
	parts, err := BuildPairHierarchy(64, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(p, parts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(nil)
	if err != nil || !res.Converged {
		t.Fatalf("solve failed without context: %v %v", res, err)
	}
}
