package progress

import (
	"context"
	"math"
	"testing"
	"time"

	"cdrstoch/internal/obs"
	"cdrstoch/internal/obs/cost"
)

// tracedCtx returns a context carrying a fixed trace identity.
func tracedCtx(trace string) context.Context {
	return obs.ContextWithTrace(context.Background(), trace, "span-"+trace)
}

func TestNilTrackerIsNoOp(t *testing.T) {
	var tr *Tracker
	h := tr.Begin(context.Background(), "analyze", "key")
	if h != nil {
		t.Fatalf("nil tracker Begin returned non-nil handle")
	}
	h.Emit(obs.Event{Kind: "iter", Iter: 1, Residual: 0.5})
	tr.Finish(h, cost.SolveReport{Trace: "x"})
	tr.Start()
	tr.Stop()
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracker Snapshot = %v, want nil", got)
	}
	if _, ok := tr.LatestByTrace("x"); ok {
		t.Fatalf("nil tracker LatestByTrace found something")
	}
	if sub := tr.Subscribe("x", 1); sub != nil {
		t.Fatalf("nil tracker Subscribe returned non-nil")
	}
}

// TestHandleEmitAllocFree pins the enabled-but-unwatched hot path: with
// no subscribers, feeding an iteration event into a handle allocates
// nothing, so teeing a handle into a solver's tracer chain cannot perturb
// the solver's allocation profile.
func TestHandleEmitAllocFree(t *testing.T) {
	tr := New(Config{Registry: obs.NewRegistry()})
	h := tr.Begin(tracedCtx("t1"), "analyze", "key")
	e := obs.Event{T: 1, Kind: "iter", Name: "multigrid", Iter: 3, Residual: 1e-5, Trace: "t1"}
	allocs := testing.AllocsPerRun(200, func() { h.Emit(e) })
	if allocs != 0 {
		t.Fatalf("Handle.Emit allocated %.1f allocs/op, want 0", allocs)
	}
	var nilH *Handle
	allocs = testing.AllocsPerRun(200, func() { nilH.Emit(e) })
	if allocs != 0 {
		t.Fatalf("nil Handle.Emit allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestProbeIterAllocFree pins a solver's per-iteration cost through its
// run probe: zero allocations with no run in the context, and zero with a
// run whose sink is the server's composition — the flight recorder tee'd
// with a progress handle — and which carries a fault hook.
func TestProbeIterAllocFree(t *testing.T) {
	tr := New(Config{Registry: obs.NewRegistry()})
	ctx := tracedCtx("tA")
	h := tr.Begin(ctx, "analyze", "key")
	defer tr.Finish(h, cost.SolveReport{})
	run := &obs.Run{
		Sink:  obs.Tee(obs.NewFlightRecorder(64), h),
		Fault: func(context.Context, string) error { return nil },
	}
	for name, ctx := range map[string]context.Context{
		"no run":            context.Background(),
		"flight + progress": obs.WithRun(ctx, run),
	} {
		p := obs.Begin(ctx, "multigrid", obs.Cycles, "multigrid.cycle", nil)
		it := 0
		allocs := testing.AllocsPerRun(200, func() {
			it++
			if err := p.Iter(it, 1e-5); err != nil {
				t.Fatal(err)
			}
		})
		p.End(obs.Work{})
		if allocs != 0 {
			t.Errorf("%s: probe iteration allocated %.1f allocs/op, want 0", name, allocs)
		}
	}
}

// TestHandleRestartsFitOnNewSolver checks that a second solver within one
// solve (the slip endpoint's quasi-stationary refinement after multigrid)
// starts a fresh decay fit and residual history: its first residual is
// far above the previous solver's last and must read neither as a
// stalled best nor as growth.
func TestHandleRestartsFitOnNewSolver(t *testing.T) {
	tr := New(Config{Registry: obs.NewRegistry(), StallWindow: time.Hour, DivergeChecks: 1})
	h := tr.Begin(tracedCtx("tQ"), "slip", "k")
	defer tr.Finish(h, cost.SolveReport{})
	for k := 1; k <= 4; k++ {
		h.Emit(obs.Event{Kind: "iter", Name: "multigrid", Iter: k, Residual: math.Pow(10, -3*float64(k))})
	}
	tr.check(time.Now())
	h.Emit(obs.Event{Kind: "iter", Name: "quasi-stationary", Iter: 1, Residual: 0.5})
	tr.check(time.Now())
	p, _ := tr.LatestByTrace("tQ")
	if p.State != StateProgressing || p.BestResidual != 0.5 || p.SlopePerIter != 0 {
		t.Fatalf("after the solver switch: %+v", p)
	}
}

func TestEstimatorSlopeAndETA(t *testing.T) {
	var e estimator
	// Residual decays half a decade per iteration, 10ms wall per
	// iteration: res(k) = 10^(-k/2), starting at iteration 1.
	const stepNS = int64(10 * time.Millisecond)
	for k := 1; k <= 8; k++ {
		e.add(k, int64(k)*stepNS, math.Pow(10, -float64(k)/2))
	}
	slope, ok := e.slope()
	if !ok || math.Abs(slope+0.5) > 1e-9 {
		t.Fatalf("slope = %v (ok=%v), want -0.5", slope, ok)
	}
	// At iteration 8 the residual is 1e-4; reaching 1e-12 needs 16 more
	// iterations at 10ms each.
	eta, ok := e.eta(1e-12)
	if !ok {
		t.Fatalf("eta not available")
	}
	want := 160 * time.Millisecond
	if diff := eta - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("eta = %v, want ~%v", eta, want)
	}
	// A residual already below tolerance has nothing left.
	if eta, ok := e.eta(1e-3); !ok || eta != 0 {
		t.Fatalf("past-tolerance eta = %v (ok=%v), want 0, true", eta, ok)
	}
}

func TestEstimatorRefusesNonConverging(t *testing.T) {
	var e estimator
	if _, ok := e.eta(1e-12); ok {
		t.Fatalf("empty estimator produced an ETA")
	}
	e.add(1, 0, 1e-3)
	if _, ok := e.eta(1e-12); ok {
		t.Fatalf("single-point estimator produced an ETA")
	}
	// Growing residual: slope positive, no ETA.
	e.add(2, int64(time.Millisecond), 1e-2)
	e.add(3, 2*int64(time.Millisecond), 1e-1)
	if slope, ok := e.slope(); !ok || slope <= 0 {
		t.Fatalf("growing-residual slope = %v (ok=%v), want positive", slope, ok)
	}
	if _, ok := e.eta(1e-12); ok {
		t.Fatalf("growing-residual estimator produced an ETA")
	}
}

func TestSnapshotAndLatestByTrace(t *testing.T) {
	tr := New(Config{Registry: obs.NewRegistry()})
	h1 := tr.Begin(tracedCtx("tA"), "analyze", "k1")
	h2 := tr.Begin(tracedCtx("tB"), "sweep", "k2")
	h1.Emit(obs.Event{Kind: "span_start", Name: "serve.build"})
	h1.Emit(obs.Event{Kind: "iter", Name: "multigrid", Iter: 1, Residual: 1e-2})
	h1.Emit(obs.Event{Kind: "iter", Name: "multigrid", Iter: 2, Residual: 1e-4})

	snap := tr.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("Snapshot has %d solves, want 2", len(snap))
	}
	if snap[0].ID > snap[1].ID {
		t.Fatalf("Snapshot not ordered by registration: %v", snap)
	}
	p, ok := tr.LatestByTrace("tA")
	if !ok {
		t.Fatalf("LatestByTrace(tA) not found")
	}
	if p.Endpoint != "analyze" || p.Iter != 2 || p.Residual != 1e-4 || p.Phase != "multigrid" {
		t.Fatalf("LatestByTrace(tA) = %+v", p)
	}
	if p.State != StateProgressing {
		t.Fatalf("fresh solve state = %q, want progressing", p.State)
	}
	if p.BestResidual != 1e-4 {
		t.Fatalf("best residual = %v, want 1e-4", p.BestResidual)
	}
	if p.EtaSeconds == nil || *p.EtaSeconds < 0 {
		t.Fatalf("two decaying residuals should produce an ETA, got %+v", p.EtaSeconds)
	}

	tr.Finish(h1, cost.SolveReport{})
	if len(tr.Snapshot()) != 1 {
		t.Fatalf("ended solve still in Snapshot")
	}
	if _, ok := tr.LatestByTrace("tA"); ok {
		t.Fatalf("ended solve still found by trace")
	}
	tr.Finish(h2, cost.SolveReport{Err: "boom"})
	if got := tr.inflight(); got != 0 {
		t.Fatalf("inflight = %d after both ended, want 0", got)
	}
}

func TestWatchdogStallAndRecovery(t *testing.T) {
	reg := obs.NewRegistry()
	out := obs.NewFlightRecorder(16)
	tr := New(Config{Registry: reg, Out: out, StallWindow: 50 * time.Millisecond, DivergeChecks: 3})
	h := tr.Begin(tracedCtx("tS"), "analyze", "k")
	h.Emit(obs.Event{Kind: "iter", Name: "multigrid", Iter: 1, Residual: 1e-3, Trace: "tS"})

	tr.check(time.Now())
	if got := tr.countState(StateStalled); got != 0 {
		t.Fatalf("fresh solve classified stalled")
	}
	// Pretend the window elapsed with no events: classify from a future
	// instant rather than sleeping.
	tr.check(time.Now().Add(60 * time.Millisecond))
	p, _ := tr.LatestByTrace("tS")
	if p.State != StateStalled {
		t.Fatalf("state = %q after silent window, want stalled", p.State)
	}
	if got := reg.Counter("progress.solves_stalled_total").Value(); got != 1 {
		t.Fatalf("solves_stalled_total = %d, want 1", got)
	}
	events := out.Tail(-1)
	if len(events) == 0 {
		t.Fatalf("no watchdog event reached Out after stall")
	}
	last := events[len(events)-1]
	if last.Kind != "watchdog" || last.Name != StateStalled || last.Trace != "tS" || last.Reason == "" {
		t.Fatalf("stall event = %+v", last)
	}

	// New events with an improving residual recover the solve.
	h.Emit(obs.Event{Kind: "iter", Name: "multigrid", Iter: 2, Residual: 1e-5, Trace: "tS"})
	tr.check(time.Now())
	p, _ = tr.LatestByTrace("tS")
	if p.State != StateProgressing {
		t.Fatalf("state = %q after recovery, want progressing", p.State)
	}
	if got := reg.Counter("watchdog.recoveries_total").Value(); got != 1 {
		t.Fatalf("recoveries_total = %d, want 1", got)
	}
	tr.Finish(h, cost.SolveReport{})
}

func TestWatchdogDivergence(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(Config{Registry: reg, StallWindow: time.Hour, DivergeChecks: 3})
	h := tr.Begin(tracedCtx("tD"), "analyze", "k")
	res := 1e-3
	h.Emit(obs.Event{Kind: "iter", Name: "power", Iter: 1, Residual: res, Trace: "tD"})
	tr.check(time.Now()) // baseline
	for i := 2; i <= 4; i++ {
		res *= 2
		h.Emit(obs.Event{Kind: "iter", Name: "power", Iter: i, Residual: res, Trace: "tD"})
		tr.check(time.Now())
	}
	p, _ := tr.LatestByTrace("tD")
	if p.State != StateDiverging {
		t.Fatalf("state = %q after 3 growing checks, want diverging", p.State)
	}
	if got := reg.Counter("watchdog.divergences_total").Value(); got != 1 {
		t.Fatalf("divergences_total = %d, want 1", got)
	}
	tr.Finish(h, cost.SolveReport{})
}

// TestWatchdogLoop exercises the real ticker loop end to end: a solve
// that stops emitting is reported stalled within a few intervals.
func TestWatchdogLoop(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(Config{Registry: reg, StallWindow: 30 * time.Millisecond, Interval: 10 * time.Millisecond})
	tr.Start()
	defer tr.Stop()
	h := tr.Begin(tracedCtx("tL"), "analyze", "k")
	defer tr.Finish(h, cost.SolveReport{})
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Counter("progress.solves_stalled_total").Value() > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("watchdog loop never reported the silent solve as stalled")
}

// TestSubscribeSlowReader pins the misbehaving-client contract: a
// subscriber that never drains loses events beyond its buffer — counted,
// never blocking the emitter.
func TestSubscribeSlowReader(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(Config{Registry: reg})
	sub := tr.Subscribe("tQ", 4)
	defer sub.Close()
	h := tr.Begin(tracedCtx("tQ"), "analyze", "k")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= 50; i++ {
			h.Emit(obs.Event{Kind: "iter", Name: "multigrid", Iter: i, Residual: 1e-3, Trace: "tQ"})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("publishing blocked on a slow subscriber")
	}
	// Begin's solve_start plus 50 iters were published into a 4-slot
	// buffer: everything beyond 4 must be in the drop accounting.
	if got, want := sub.Dropped(), uint64(47); got != want {
		t.Fatalf("sub.Dropped() = %d, want %d", got, want)
	}
	if got := reg.Counter("progress.events_dropped").Value(); got != 47 {
		t.Fatalf("progress.events_dropped = %d, want 47", got)
	}
	if got := len(sub.C()); got != 4 {
		t.Fatalf("buffered events = %d, want 4", got)
	}
	tr.Finish(h, cost.SolveReport{})
}

func TestSubscribeReceivesLifecycleEvents(t *testing.T) {
	tr := New(Config{Registry: obs.NewRegistry()})
	sub := tr.Subscribe("tE", 16)
	defer sub.Close()
	h := tr.Begin(tracedCtx("tE"), "sweep", "k")
	h.Emit(obs.Event{Kind: "iter", Name: "multigrid", Iter: 1, Residual: 1e-2, Trace: "tE"})
	tr.Finish(h, cost.SolveReport{Err: "injected: boom"})
	var kinds []string
	var endReason string
	for len(kinds) < 3 {
		select {
		case e := <-sub.C():
			kinds = append(kinds, e.Kind)
			if e.Kind == "solve_end" {
				endReason = e.Reason
			}
		case <-time.After(time.Second):
			t.Fatalf("timed out waiting for events, got %v", kinds)
		}
	}
	want := []string{"solve_start", "iter", "solve_end"}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event kinds = %v, want %v", kinds, want)
		}
	}
	if endReason != "injected: boom" {
		t.Fatalf("solve_end reason = %q", endReason)
	}
	// After Close, publishes stop reaching the channel.
	sub.Close()
	h2 := tr.Begin(tracedCtx("tE"), "sweep", "k")
	tr.Finish(h2, cost.SolveReport{})
	select {
	case e := <-sub.C():
		t.Fatalf("closed subscription received %+v", e)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestTrackerMetricsSurviveLint covers the new progress_* / watchdog_*
// metric families with the repository naming lint.
func TestTrackerMetricsSurviveLint(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(Config{Registry: reg})
	h := tr.Begin(tracedCtx("tM"), "analyze", "k")
	tr.check(time.Now())
	tr.Finish(h, cost.SolveReport{})
	snap := reg.Snapshot()
	if problems := snap.LintMetrics(); len(problems) != 0 {
		t.Fatalf("metrics lint: %v", problems)
	}
	for _, name := range []string{
		"progress.solves_inflight", "progress.subscribers",
	} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Fatalf("gauge %q missing from snapshot", name)
		}
	}
	for _, name := range []string{
		"progress.solves_stalled_total", "watchdog.checks_total",
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Fatalf("counter %q missing from snapshot", name)
		}
	}
}
