package cost

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"cdrstoch/internal/obs"
	"cdrstoch/internal/spmat"
)

func TestMeterNilIsNoOp(t *testing.T) {
	var m *Meter
	m.SampleGoroutines()
	m.MarkWarmStarted()
	m.AddResidual(1e-9)
	m.AddWork(obs.Work{Cycles: 3, Sweeps: 5, Restarts: 1, Workspace: 64,
		Pool: spmat.PoolStats{SpMVs: 3}, Levels: []obs.LevelStat{{Level: 0}}})
	rep := m.Finish()
	if rep.Cycles != 0 || rep.Sweeps != 0 || rep.Pool.SpMVs != 0 {
		t.Errorf("nil meter produced non-zero report: %+v", rep)
	}
}

// TestMeterAccumulates checks how two probes' work combines: counts,
// kernel deltas and per-level visits and smoothing time add up, while
// the workspace is the largest reported, not the sum — the second probe
// may be the same solver solving again.
func TestMeterAccumulates(t *testing.T) {
	m := NewMeter()
	m.AddWork(obs.Work{Cycles: 4, Sweeps: 30, Restarts: 1, Workspace: 1024,
		Pool:   spmat.PoolStats{SpMVs: 4, RowSweeps: 1, NNZ: 400, KernelNS: 400},
		Levels: []obs.LevelStat{{Level: 0, Size: 64, Visits: 4, SmoothNS: 100}, {Level: 1, Size: 8, Visits: 8, SmoothNS: 20}}})
	m.AddWork(obs.Work{Cycles: 3, Sweeps: 10, Restarts: 1, Workspace: 512,
		Pool:   spmat.PoolStats{SpMVs: 6, RowSweeps: 3, NNZ: 600, KernelNS: 600},
		Levels: []obs.LevelStat{{Level: 0, Size: 64, Visits: 3, SmoothNS: 23}}})
	for i := 0; i < 5; i++ {
		m.AddResidual(1.0 / float64(i+1))
	}
	rep := m.Finish()
	if rep.Cycles != 7 || rep.Sweeps != 40 || rep.Restarts != 2 {
		t.Errorf("cycles/sweeps/restarts = %d/%d/%d", rep.Cycles, rep.Sweeps, rep.Restarts)
	}
	if rep.WorkspaceBytes != 1024 {
		t.Errorf("workspace = %d, want the peak 1024", rep.WorkspaceBytes)
	}
	if rep.Pool.SpMVs != 10 || rep.Pool.RowSweeps != 4 || rep.Pool.NNZ != 1000 || rep.Pool.KernelNS != 1000 {
		t.Errorf("pool delta = %+v", rep.Pool)
	}
	// 1000 nnz · 16 B over 1000 ns = 16 GB/s.
	if rep.SpMVGBps < 15.9 || rep.SpMVGBps > 16.1 {
		t.Errorf("bandwidth = %g, want 16", rep.SpMVGBps)
	}
	if rep.FinalResidual != 0.2 {
		t.Errorf("final residual = %g, want 0.2", rep.FinalResidual)
	}
	if len(rep.ResidualTail) != 5 || rep.ResidualTail[0] != 1.0 || rep.ResidualTail[4] != 0.2 {
		t.Errorf("residual tail = %v", rep.ResidualTail)
	}
	if len(rep.Levels) != 2 || rep.Levels[0] != (obs.LevelStat{Level: 0, Size: 64, Visits: 7, SmoothNS: 123}) ||
		rep.Levels[1] != (obs.LevelStat{Level: 1, Size: 8, Visits: 8, SmoothNS: 20}) {
		t.Errorf("levels = %+v", rep.Levels)
	}
	if rep.WallNS <= 0 {
		t.Errorf("wall = %d", rep.WallNS)
	}
	if rep.PeakGoroutines < 1 {
		t.Errorf("peak goroutines = %d", rep.PeakGoroutines)
	}
}

func TestMeterResidualTailBounded(t *testing.T) {
	m := NewMeter()
	const n = ResidualTailMax + 7
	for i := 1; i <= n; i++ {
		m.AddResidual(float64(i))
	}
	rep := m.Finish()
	if len(rep.ResidualTail) != ResidualTailMax {
		t.Fatalf("tail length = %d, want %d", len(rep.ResidualTail), ResidualTailMax)
	}
	// Oldest retained first: residuals n-ResidualTailMax+1 .. n.
	if rep.ResidualTail[0] != float64(n-ResidualTailMax+1) {
		t.Errorf("tail[0] = %g, want %g", rep.ResidualTail[0], float64(n-ResidualTailMax+1))
	}
	if rep.ResidualTail[ResidualTailMax-1] != float64(n) {
		t.Errorf("tail last = %g, want %g", rep.ResidualTail[ResidualTailMax-1], float64(n))
	}
	if rep.FinalResidual != float64(n) {
		t.Errorf("final = %g", rep.FinalResidual)
	}
}

// TestMeterContextRoundTrip checks that a meter rides a solve's context
// inside its run handle and is charged through the run's probes.
func TestMeterContextRoundTrip(t *testing.T) {
	m := NewMeter()
	ctx := obs.WithRun(context.Background(), &obs.Run{Meter: m})
	if got := obs.RunFrom(ctx).Meter; got != obs.Meter(m) {
		t.Fatal("meter did not round-trip through the run")
	}
	p := obs.Begin(ctx, "power", obs.Sweeps, "", nil)
	_ = p.Iter(1, 0.5)
	_ = p.Iter(2, 0.25)
	p.End(obs.Work{})
	rep := m.Finish()
	if rep.Sweeps != 2 || rep.FinalResidual != 0.25 || len(rep.ResidualTail) != 2 {
		t.Errorf("report after two probed sweeps: %+v", rep)
	}
}

func TestProcessCPUAdvances(t *testing.T) {
	c0 := ProcessCPU()
	if c0 < 0 {
		t.Fatalf("ProcessCPU = %v", c0)
	}
	// Burn a little CPU; the rusage clock should not go backwards.
	x := 0.0
	for i := 0; i < 1_000_000; i++ {
		x += float64(i % 7)
	}
	_ = x
	if c1 := ProcessCPU(); c1 < c0 {
		t.Errorf("CPU time went backwards: %v -> %v", c0, c1)
	}
}

func TestWriteTableSortsByCPU(t *testing.T) {
	var sb strings.Builder
	err := WriteTable(&sb, []SolveReport{
		{Trace: "cheap", CPUNS: 1e6},
		{Trace: "costly", CPUNS: 9e6, Cached: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "TRACE") {
		t.Errorf("missing header: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "costly") || !strings.Contains(lines[1], "hit") {
		t.Errorf("row 1 = %q, want costly/hit first", lines[1])
	}
	if !strings.HasPrefix(lines[2], "cheap") || !strings.Contains(lines[2], "miss") {
		t.Errorf("row 2 = %q", lines[2])
	}
}

// failAfter fails every write after the first n bytes succeed.
type failAfter struct {
	n       int
	written int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.written >= f.n {
		return 0, errors.New("sink broke")
	}
	f.written += len(p)
	return len(p), nil
}

// TestJSONLStickyError checks the -cost-log path: reports written through
// the shared JSON-lines sink decode back line by line, and once a write
// fails the error sticks and every later report is dropped and counted.
func TestJSONLStickyError(t *testing.T) {
	var sb strings.Builder
	s := obs.NewJSONL(&sb)
	s.Encode(SolveReport{Trace: "t1", Cycles: 3})
	s.Encode(SolveReport{Trace: "t2"})
	if s.Err() != nil || s.Dropped() != 0 {
		t.Fatalf("healthy sink: err=%v dropped=%d", s.Err(), s.Dropped())
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines:\n%s", len(lines), sb.String())
	}
	var rep SolveReport
	if err := json.Unmarshal([]byte(lines[0]), &rep); err != nil || rep.Trace != "t1" || rep.Cycles != 3 {
		t.Fatalf("line = %q: %v", lines[0], err)
	}

	broken := obs.NewJSONL(&failAfter{})
	broken.Encode(SolveReport{})
	broken.Encode(SolveReport{})
	if broken.Err() == nil {
		t.Error("write error did not stick")
	}
	if broken.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", broken.Dropped())
	}
}

func TestAggregateEndpointHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	Aggregate(reg, SolveReport{Endpoint: "analyze", CPUNS: 2e9, WallNS: 3e9,
		Cycles: 11, Pool: PoolCost{SpMVs: 44}})
	Aggregate(reg, SolveReport{Endpoint: "analyze", Cached: true})
	Aggregate(reg, SolveReport{}) // endpoint defaults to "unknown"
	Aggregate(nil, SolveReport{}) // nil registry no-op

	snap := reg.Snapshot()
	if got := snap.Counters["cost.reports"]; got != 3 {
		t.Errorf("cost.reports = %d, want 3", got)
	}
	h, ok := snap.Histograms["cost.analyze.cpu_seconds"]
	if !ok || h.Count != 1 {
		t.Fatalf("cpu_seconds hist = %+v (cached replay must not count)", h)
	}
	if h.Sum < 1.9 || h.Sum > 2.1 {
		t.Errorf("cpu_seconds sum = %g", h.Sum)
	}
	if h := snap.Histograms["cost.analyze.spmv_total"]; h.Sum != 44 {
		t.Errorf("spmv_total sum = %g", h.Sum)
	}
	if h := snap.Histograms["cost.analyze.cycles"]; h.Sum != 11 {
		t.Errorf("cycles sum = %g", h.Sum)
	}
	if _, ok := snap.Histograms["cost.unknown.cpu_seconds"]; !ok {
		t.Error("empty endpoint did not map to unknown")
	}
}

func TestRuntimeCollectorPoll(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewRuntimeCollector(reg)
	c.Poll()
	snap := reg.Snapshot()
	if g := snap.Gauges["runtime.sched_goroutines_goroutines"]; g < 1 {
		t.Errorf("goroutine gauge = %g", g)
	}
	if g := snap.Gauges["runtime.memory_classes_total_bytes"]; g <= 0 {
		t.Errorf("total memory gauge = %g", g)
	}
	// Histogram samples export as _p50/_p99 quantile gauges.
	for _, name := range []string{"runtime.gc_pauses_seconds_p50", "runtime.gc_pauses_seconds_p99",
		"runtime.sched_latencies_seconds_p50", "runtime.sched_latencies_seconds_p99"} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("missing quantile gauge %s", name)
		}
	}
	// Every exported name must survive metrics lint.
	if probs := snap.LintMetrics(); len(probs) != 0 {
		t.Errorf("runtime gauges fail lint: %v", probs)
	}
	// Nil collector / registry are no-ops.
	var nc *RuntimeCollector
	nc.Poll()
	NewRuntimeCollector(nil).Poll()
}

func TestRuntimeCollectorStartStop(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewRuntimeCollector(reg)
	stop := c.Start(time.Millisecond)
	defer stop()
	// The immediate poll guarantees the gauges exist before any tick.
	if g := reg.Snapshot().Gauges["runtime.sched_goroutines_goroutines"]; g < 1 {
		t.Errorf("immediate poll missing: %g", g)
	}
	stop()
	// interval <= 0 returns a valid no-op stop.
	c.Start(0)()
}

func TestRuntimeGaugeName(t *testing.T) {
	for in, want := range map[string]string{
		"/gc/pauses:seconds":           "runtime.gc_pauses_seconds",
		"/sched/goroutines:goroutines": "runtime.sched_goroutines_goroutines",
	} {
		if got := runtimeGaugeName(in); got != want {
			t.Errorf("runtimeGaugeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSolveReportJSONOmitsEmpty(t *testing.T) {
	b, err := json.Marshal(SolveReport{WallNS: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{"trace_id", "levels", "residual_tail", "error", "cached"} {
		if strings.Contains(string(b), `"`+absent+`"`) {
			t.Errorf("zero report JSON contains %q: %s", absent, b)
		}
	}
}
