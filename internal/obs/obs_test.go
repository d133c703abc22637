package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestRegistryConcurrentUpdates(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 16
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				reg.Counter("bits").Add(2)
				reg.Gauge("rate").Set(float64(g))
				reg.Histogram("step_ms").Observe(1)
			}
		}(g)
	}
	wg.Wait()
	s := reg.Snapshot()
	if got := s.Counters["bits"]; got != 2*goroutines*perG {
		t.Errorf("counter = %d, want %d", got, 2*goroutines*perG)
	}
	if h := s.Histograms["step_ms"]; h.Count != goroutines*perG || h.Sum != goroutines*perG {
		t.Errorf("histogram count/sum = %d/%g, want %d", h.Count, h.Sum, goroutines*perG)
	}
	if r := s.Gauges["rate"]; r < 0 || r >= goroutines {
		t.Errorf("gauge = %g", r)
	}
}

func TestNilRegistryAndMetricsAreNoops(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Inc()
	reg.Gauge("y").Set(3)
	reg.Histogram("z").Time()()
	if v := reg.Counter("x").Value(); v != 0 {
		t.Errorf("nil counter value = %d", v)
	}
	s := reg.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Errorf("nil snapshot not empty: %+v", s)
	}
	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestDisabledPathAllocations pins the zero-cost-when-disabled contract:
// a probe whose context carries no run must not allocate, whole solve
// included, and nil-registry metric updates must not allocate either.
// TestStampFromContextDisabledZeroAlloc pins a run with only a trace
// identity.
func TestDisabledPathAllocations(t *testing.T) {
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		p := Begin(ctx, "multigrid", Cycles, "multigrid.cycle", nil)
		_ = p.Iter(7, 1e-9)
		_ = p.Progress("bitsim", 0, 100, 1000)
		p.End(Work{})
	}); n != 0 {
		t.Errorf("probe without a run allocates %.1f/op", n)
	}
	var reg *Registry
	if n := testing.AllocsPerRun(1000, func() {
		reg.Counter("bits").Add(1)
		reg.Gauge("rate").Set(1)
	}); n != 0 {
		t.Errorf("nil-registry updates allocate %.1f/op", n)
	}
	var reg2 *Registry
	if n := testing.AllocsPerRun(1000, func() {
		reg2.Histogram("lat").Observe(1.5)
		reg2.Histogram("lat_ms").Time()()
	}); n != 0 {
		t.Errorf("nil-registry histogram observe/time allocates %.1f/op", n)
	}
	var flight *FlightRecorder
	if n := testing.AllocsPerRun(1000, func() {
		flight.Emit(Event{Kind: "iter", Iter: 1})
	}); n != 0 {
		t.Errorf("nil flight recorder Emit allocates %.1f/op", n)
	}
}

// TestCollectorConcurrentAccess exercises Emit, Events and Reset racing —
// run under -race this pins the Collector's locking discipline.
func TestCollectorConcurrentAccess(t *testing.T) {
	col := NewCollector(nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				col.Emit(Event{Kind: "iter", Name: "gs", Iter: i, Residual: 0.5})
				if i%100 == 0 {
					for _, e := range col.Events() {
						_ = e.Iter
					}
				}
				if g == 0 && i%250 == 0 {
					col.Reset()
				}
			}
		}(g)
	}
	wg.Wait()
	// No assertion beyond absence of races/panics; the event count is
	// unknowable with concurrent Resets.
	col.Events()
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	p := Begin(WithRun(context.Background(), &Run{Sink: sink}), "power", Sweeps, "", nil)
	_ = p.Iter(1, 0.25)
	_ = p.Iter(2, 0.0625)
	_ = p.Progress("bitsim", 2, 500, 1000)
	levels := []LevelStat{{Level: 0, Size: 512, Visits: 2, SmoothNS: 900}, {Level: 1, Size: 128, Visits: 4, SmoothNS: 300}}
	p.End(Work{Levels: levels})
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("round-tripped %d events, want 5", len(events))
	}
	if events[0].Kind != "span_start" || events[0].Name != "power" {
		t.Errorf("first event = %+v", events[0])
	}
	if e := events[1]; e.Kind != "iter" || e.Name != "power" || e.Iter != 1 || e.Residual != 0.25 {
		t.Errorf("iter event = %+v", e)
	}
	if e := events[3]; e.Kind != "progress" || e.Name != "bitsim" || e.Worker != 2 || e.Done != 500 || e.Total != 1000 {
		t.Errorf("progress event = %+v", e)
	}
	last := events[4]
	if last.Kind != "span_end" || last.Name != "power" || last.DurNS < 0 || last.T < events[0].T {
		t.Errorf("span_end event = %+v", last)
	}
	if !reflect.DeepEqual(last.Levels, levels) {
		t.Errorf("span_end levels = %+v, want %+v", last.Levels, levels)
	}
}

func TestCollectorAndDecaySlope(t *testing.T) {
	var buf bytes.Buffer
	col := NewCollector(NewJSONL(&buf))
	// Exact decade-per-iteration decay: slope must be -1.
	for i := 1; i <= 5; i++ {
		col.Emit(Event{Kind: "iter", Name: "gs", Iter: i, Residual: math.Pow(10, -float64(i))})
	}
	col.Emit(Event{Kind: "iter", Name: "other", Iter: 1, Residual: 0.5}) // different name: excluded from the fit
	slope, n := DecaySlope(col.Events(), "gs")
	if n != 5 {
		t.Fatalf("fit used %d points, want 5", n)
	}
	if math.Abs(slope+1) > 1e-12 {
		t.Errorf("slope = %g, want -1", slope)
	}
	if got := strings.Count(buf.String(), "\n"); got != 6 {
		t.Errorf("forwarded %d lines, want 6", got)
	}
	if _, n := DecaySlope(col.Events(), "missing"); n != 0 {
		t.Errorf("missing solver matched %d points", n)
	}
	col.Reset()
	if len(col.Events()) != 0 {
		t.Error("reset did not clear events")
	}
}

func TestSnapshotWriters(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("solver.iterations").Add(42)
	reg.Gauge("bitsim.bits_per_sec").Set(1.5e8)
	reg.Histogram("solve_ms").Time()()
	s := reg.Snapshot()

	var text bytes.Buffer
	if err := s.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"solver.iterations", "42", "bitsim.bits_per_sec", "solve_ms", "count=1"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text snapshot missing %q:\n%s", want, text.String())
		}
	}

	js, err := reg.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"solver.iterations":42`, `"solve_ms":{"count":1`} {
		if !strings.Contains(string(js), want) {
			t.Errorf("json snapshot missing %s: %s", want, js)
		}
	}
}

// TestSnapshotJSONMatchesWriteJSON pins the byte-level contract the
// cdrserved /metrics endpoint relies on: SnapshotJSON is exactly what an
// encoding/json Encoder writes for the snapshot (the bytes Snapshot.WriteJSON
// used to write), and a nil registry yields an empty object.
func TestSnapshotJSONMatchesWriteJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("serve.solves").Add(3)
	reg.Gauge("serve.cache_entries").Set(2)
	reg.Histogram("serve.solve_ms").Observe(5)

	got, err := reg.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("SnapshotJSON diverges from the encoded snapshot:\n%s\nvs\n%s", got, want.Bytes())
	}

	nilGot, err := (*Registry)(nil).SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(nilGot) != "{}\n" {
		t.Errorf("nil registry JSON snapshot = %q, want {}", nilGot)
	}
}
