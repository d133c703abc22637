package passage

import (
	"context"
	"errors"
	"strings"
	"testing"

	"cdrstoch/internal/obs"
	"cdrstoch/internal/spmat"
)

// cancelAtSweep cancels a context the first time it sees an "iter" event
// at or past trigger, recording everything — the differential
// cancellation pattern shared with the multigrid and markov suites.
type cancelAtSweep struct {
	*obs.Collector
	cancel  context.CancelFunc
	trigger int
	firedAt int
}

func (c *cancelAtSweep) Emit(e obs.Event) {
	c.Collector.Emit(e)
	if e.Kind == "iter" && e.Iter >= c.trigger && c.firedAt == 0 {
		c.firedAt = e.Iter
		c.cancel()
	}
}

// TestHittingTimesCancellationCadence checks the Gauss–Seidel hitting
// sweep observes ctx.Done() within one sweep of the cancellation: no
// "iter" event may follow the one that pulled the trigger.
func TestHittingTimesCancellationCadence(t *testing.T) {
	// Lazy cycle with one target: slow contraction keeps the sweep loop
	// running until the cancellation stops it.
	n := 64
	tr := spmat.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		tr.Add(i, i, 0.5)
		tr.Add(i, (i+1)%n, 0.5)
	}
	p := tr.ToCSR()
	target := make([]bool, n)
	target[0] = true

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	col := &cancelAtSweep{Collector: obs.NewCollector(nil), cancel: cancel, trigger: 3}
	_, ok, err := HittingTimesIterative(p, target, IterOptions{
		Ctx: obs.WithRun(ctx, &obs.Run{Sink: col}), Tol: 1e-300, MaxIter: 500,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if ok {
		t.Error("canceled solve reported converged")
	}
	if !strings.Contains(err.Error(), "stopped after") {
		t.Errorf("error lacks partial progress: %v", err)
	}
	if col.firedAt == 0 {
		t.Fatal("the trigger sweep never ran")
	}
	for _, e := range col.Events() {
		if e.Kind == "iter" && e.Iter > col.firedAt {
			t.Errorf("sweep traced after cancellation (trigger %d): %+v", col.firedAt, e)
		}
	}
}
