package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"cdrstoch/internal/multigrid"
	"cdrstoch/internal/obs"
)

func TestAnalyzeCacheHitIsByteIdentical(t *testing.T) {
	reg := obs.NewRegistry()
	col := obs.NewCollector(nil)
	eng := NewEngine(EngineConfig{Registry: reg, Tracer: col})
	ctx := context.Background()

	first, cached, err := eng.Analyze(ctx, testSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first request reported a cache hit on a cold cache")
	}
	if n := len(col.Events()); n == 0 {
		t.Fatal("cache-miss solve emitted no trace events")
	}
	col.Reset()

	second, cached, err := eng.Analyze(ctx, testSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("second identical request missed the cache")
	}
	if !bytes.Equal(first, second) {
		t.Errorf("cached body differs:\n%s\nvs\n%s", first, second)
	}
	// The cache hit must not have touched a solver: no trace events.
	if evs := col.Events(); len(evs) != 0 {
		t.Errorf("cache hit emitted %d solver trace events, want 0: %+v", len(evs), evs[0])
	}
	snap := reg.Snapshot()
	if got := snap.Counters["serve.cache_hits"]; got != 1 {
		t.Errorf("cache_hits = %d, want 1", got)
	}
	if got := snap.Counters["serve.solves"]; got != 1 {
		t.Errorf("solves = %d, want 1", got)
	}

	var body AnalyzeBody
	if err := json.Unmarshal(first, &body); err != nil {
		t.Fatal(err)
	}
	if body.States != 153 {
		t.Errorf("states = %d, want 153", body.States)
	}
	if !body.Converged || body.BER <= 0 || body.BER >= 1 {
		t.Errorf("implausible analysis: converged=%v ber=%g", body.Converged, body.BER)
	}
	if len(body.SpecKey) != 64 {
		t.Errorf("spec key %q is not a sha256 hex digest", body.SpecKey)
	}
}

// An evicted spec solves again to the bytes it was first served with, on
// both backends: a body is a function of the spec and backend alone, so a
// client comparing a fresh answer with an earlier cached one sees no
// difference.
func TestEvictedSpecResolvesByteIdentical(t *testing.T) {
	reg := obs.NewRegistry()
	eng := NewEngine(EngineConfig{Registry: reg, CacheEntries: 1})
	ctx := context.Background()
	specs := testSpecVariants(t)[:2]
	for _, backend := range []string{"", backendExplicit} {
		first, _, err := eng.AnalyzeBackend(ctx, specs[0], backend)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := eng.AnalyzeBackend(ctx, specs[1], backend); err != nil {
			t.Fatal(err)
		}
		again, cached, err := eng.AnalyzeBackend(ctx, specs[0], backend)
		if err != nil {
			t.Fatal(err)
		}
		if cached {
			t.Fatalf("backend %q: the one-entry cache still held the first spec", backend)
		}
		if !bytes.Equal(first, again) {
			t.Errorf("backend %q: re-solved body differs:\n%s\nvs\n%s", backend, first, again)
		}
	}
	if got := reg.Snapshot().Counters["serve.solves"]; got != 6 {
		t.Errorf("solves = %d, want 6", got)
	}
}

func TestAnalyzeConcurrentIdenticalSpecsSolveOnce(t *testing.T) {
	reg := obs.NewRegistry()
	eng := NewEngine(EngineConfig{Registry: reg})
	spec := testSpec(t)

	const n = 16
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _, err := eng.Analyze(context.Background(), spec)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()

	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("goroutine %d saw a different body", i)
		}
	}
	// Whether a caller joined the flight or arrived after completion and
	// hit the cache, exactly one solve must have run.
	if got := reg.Snapshot().Counters["serve.solves"]; got != 1 {
		t.Errorf("solves = %d, want 1 (singleflight + cache dedup)", got)
	}
}

// TestEngineConcurrentMixedSpecs is the race-detector workout demanded by
// the acceptance criteria: ≥32 goroutines with a mix of specs, asserting
// per-spec byte identity at the end.
func TestEngineConcurrentMixedSpecs(t *testing.T) {
	reg := obs.NewRegistry()
	eng := NewEngine(EngineConfig{Registry: reg, CacheEntries: 8, MaxConcurrent: 4})
	specs := testSpecVariants(t)

	const goroutines = 32
	type result struct {
		spec int
		body []byte
	}
	results := make([]result, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			si := i % len(specs)
			var (
				body []byte
				err  error
			)
			if i%8 == 7 { // sprinkle slip requests into the mix
				body, _, err = eng.Slip(context.Background(), specs[si])
				si = -1 - si // slip bodies compare within their own group
			} else {
				body, _, err = eng.Analyze(context.Background(), specs[si])
			}
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			results[i] = result{spec: si, body: body}
		}(i)
	}
	wg.Wait()

	canonical := map[int][]byte{}
	for i, r := range results {
		if r.body == nil {
			continue
		}
		if prev, ok := canonical[r.spec]; ok {
			if !bytes.Equal(prev, r.body) {
				t.Errorf("goroutine %d: body for spec group %d differs", i, r.spec)
			}
		} else {
			canonical[r.spec] = r.body
		}
	}
}

// cancelOnIter cancels a context as soon as the traced solver reports
// reaching a given cycle, while still recording every event.
type cancelOnIter struct {
	*obs.Collector
	cancel context.CancelFunc
	cycle  int
}

func (c *cancelOnIter) Emit(e obs.Event) {
	c.Collector.Emit(e)
	if e.Kind == "iter" && e.Iter >= c.cycle {
		c.cancel()
	}
}

// TestAnalyzeCancelStopsWithinOneCycle pins the cancellation contract end
// to end: canceling the request context mid-solve stops multigrid within
// one cycle, observable in the obs trace.
func TestAnalyzeCancelStopsWithinOneCycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tracer := &cancelOnIter{Collector: obs.NewCollector(nil), cancel: cancel, cycle: 2}
	eng := NewEngine(EngineConfig{
		Tracer: tracer,
		// An unreachable tolerance keeps the solver iterating until the
		// cancellation lands.
		Multigrid: multigrid.Config{Tol: 1e-300, MaxCycles: 10000},
	})

	_, _, err := eng.Analyze(ctx, testSpec(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "stopped after") {
		t.Errorf("error lacks partial progress: %v", err)
	}
	maxCycle := 0
	for _, e := range tracer.Events() {
		if e.Kind == "iter" && e.Iter > maxCycle {
			maxCycle = e.Iter
		}
	}
	if maxCycle > tracer.cycle+1 {
		t.Errorf("solver ran to cycle %d after cancellation at cycle %d", maxCycle, tracer.cycle)
	}
}

func TestAnalyzeRejectsInvalidSpec(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	spec := testSpec(t)
	spec.CounterLen = 0
	_, _, err := eng.Analyze(context.Background(), spec)
	if !errors.Is(err, ErrBadRequest) {
		t.Errorf("err = %v, want ErrBadRequest", err)
	}
}

func TestSlipBodyShape(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	body, _, err := eng.Slip(context.Background(), testSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	var resp SlipResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.States != 153 {
		t.Errorf("states = %d, want 153", resp.States)
	}
	if resp.Slip.TargetMass < 0 || resp.Slip.TargetMass > 1 {
		t.Errorf("target mass %g outside [0,1]", resp.Slip.TargetMass)
	}
}

func TestSweepFansOutAndReusesCache(t *testing.T) {
	reg := obs.NewRegistry()
	eng := NewEngine(EngineConfig{Registry: reg})
	spec := testSpec(t)

	body, err := eng.Sweep(context.Background(), spec, "counter", []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	var sweep SweepBody
	if err := json.Unmarshal(body, &sweep); err != nil {
		t.Fatal(err)
	}
	if len(sweep.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(sweep.Points))
	}
	for i, p := range sweep.Points {
		if p.Error != "" {
			t.Errorf("point %d failed: %s", i, p.Error)
		}
		if len(p.Result) == 0 {
			t.Errorf("point %d has no result", i)
		}
	}

	// Re-sweeping the same family must be answered from the cache alone.
	solvesBefore := reg.Snapshot().Counters["serve.solves"]
	again, err := eng.Sweep(context.Background(), spec, "counter", []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["serve.solves"]; got != solvesBefore {
		t.Errorf("repeat sweep ran %d extra solves, want 0", got-solvesBefore)
	}
	var sweep2 SweepBody
	if err := json.Unmarshal(again, &sweep2); err != nil {
		t.Fatal(err)
	}
	for i := range sweep2.Points {
		if !sweep2.Points[i].Cached {
			t.Errorf("repeat sweep point %d not served from cache", i)
		}
		if !bytes.Equal(sweep2.Points[i].Result, sweep.Points[i].Result) {
			t.Errorf("repeat sweep point %d body differs", i)
		}
	}
}

func TestSweepRejectsUnknownParam(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	_, err := eng.Sweep(context.Background(), testSpec(t), "bogus", []float64{1})
	if !errors.Is(err, ErrBadRequest) {
		t.Errorf("err = %v, want ErrBadRequest", err)
	}
	_, err = eng.Sweep(context.Background(), testSpec(t), "counter", nil)
	if !errors.Is(err, ErrBadRequest) {
		t.Errorf("empty sweep: err = %v, want ErrBadRequest", err)
	}
}

func TestSweepReportsPerPointErrors(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	body, err := eng.Sweep(context.Background(), testSpec(t), "counter", []float64{2, 2.5})
	if err != nil {
		t.Fatal(err)
	}
	var sweep SweepBody
	if err := json.Unmarshal(body, &sweep); err != nil {
		t.Fatal(err)
	}
	if sweep.Points[0].Error != "" {
		t.Errorf("valid point failed: %s", sweep.Points[0].Error)
	}
	if !strings.Contains(sweep.Points[1].Error, "positive integer") {
		t.Errorf("fractional counter point error = %q, want complaint", sweep.Points[1].Error)
	}
}
