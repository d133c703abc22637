package obs

import (
	"context"
	"time"

	"cdrstoch/internal/spmat"
)

// Run is the handle of one solve, built once by whoever owns the solve
// (the service engine, a command, an experiment) and carried in the
// solve's context. It holds everything an iterative solver reports to:
// the trace identity stamped onto every event, the event sink (flight
// recorder, -trace file, live progress handle, tee'd together), the cost
// meter and the fault hook. Solvers never see the pieces; they look the
// run up once per solve with Begin and report through the returned Probe.
//
// Every field may be left zero: a run without a sink emits nothing, one
// without a meter counts nothing, one without a fault hook injects
// nothing. A nil *Run is valid and disables everything.
type Run struct {
	// Trace and Parent identify the request (or job) the solve serves:
	// the trace ID and the root span ID stamped onto every event.
	Trace, Parent string
	// Sink receives the run's events.
	Sink Tracer
	// Meter accumulates the solve's cost (cost.Meter implements it).
	Meter Meter
	// Fault fires a named injection point and returns the injected
	// error, if any (faults.Injector.FireCtx has this shape). Probes
	// call it at every iteration boundary of solvers that name a point.
	Fault func(ctx context.Context, point string) error
}

// Meter is what a run needs of a cost meter: the residual of every
// iteration, the work a probe watched when it ends, and whether the
// solve started from a neighboring solution (a sweep's continuation).
// obs cannot name cost.Meter, which imports obs, so the dependency runs
// through this interface.
type Meter interface {
	AddResidual(r float64)
	AddWork(w Work)
	MarkWarmStarted()
}

// Work is one probe's tally, added to the run's meter when it ends.
type Work struct {
	// Cycles counts multigrid cycles; Sweeps fixed-point sweeps (and
	// GMRES matrix–vector products); Restarts GMRES restarts.
	Cycles, Sweeps, Restarts int64
	// Pool is the delta of the solver's kernel counters over the probe.
	Pool spmat.PoolStats
	// Workspace is the heap the solver holds beyond its matrix. A meter
	// keeps the largest value any probe reports, so a solver that solves
	// twice under one run counts its workspace once.
	Workspace int64
	// Levels attributes multigrid work per level, finest first; a meter
	// sums visits and smoothing time level by level.
	Levels []LevelStat
}

// LevelStat is the per-level work record of a multigrid solve.
type LevelStat struct {
	// Level is the hierarchy depth, 0 = finest.
	Level int `json:"level"`
	// Size is the level's state count.
	Size int `json:"size"`
	// Visits counts how often the cycle entered the level.
	Visits int `json:"visits"`
	// SmoothNS is wall time in the level's smoothing (finest/middle) or
	// direct GTH solve (coarsest).
	SmoothNS int64 `json:"smooth_ns"`
}

// runKey carries a solve's run through its context.
type runKey struct{}

// WithRun returns ctx carrying run. A run with no trace identity of its
// own takes the one ctx already carries, so an owner only fills in the
// sink, meter and fault hook.
func WithRun(ctx context.Context, run *Run) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if run.Trace == "" {
		run.Trace, run.Parent = TraceFromContext(ctx)
	}
	return context.WithValue(ctx, runKey{}, run)
}

// RunFrom returns the run ctx carries, or nil.
func RunFrom(ctx context.Context) *Run {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(runKey{}).(*Run)
	return r
}

// ContextWithTrace returns a context carrying only a trace identity: the
// trace ID and the root span ID of the emitting request or job. A run
// built under it later inherits both.
func ContextWithTrace(ctx context.Context, traceID, spanID string) context.Context {
	return WithRun(ctx, &Run{Trace: traceID, Parent: spanID})
}

// TraceFromContext returns the trace and root-span IDs carried by ctx,
// or empty strings when the context carries none (or is nil).
func TraceFromContext(ctx context.Context) (traceID, spanID string) {
	if r := RunFrom(ctx); r != nil {
		return r.Trace, r.Parent
	}
	return "", ""
}

// Emit stamps the run's trace identity onto e and forwards it to the
// sink. A nil run or sink drops it.
func (r *Run) Emit(e Event) {
	if r == nil || r.Sink == nil {
		return
	}
	e.Trace, e.Parent = r.Trace, r.Parent
	r.Sink.Emit(e)
}

// Span emits a span_start event and returns the function that emits the
// matching span_end with the elapsed duration. Without a sink it does
// nothing and returns a no-op.
func (r *Run) Span(name string) func() {
	if r == nil || r.Sink == nil {
		return func() {}
	}
	start := time.Now()
	r.Emit(Event{T: start.UnixNano(), Kind: "span_start", Name: name})
	return func() {
		end := time.Now()
		r.Emit(Event{T: end.UnixNano(), Kind: "span_end", Name: name, DurNS: int64(end.Sub(start))})
	}
}

// Unit names what a solver's iteration index counts, and so which cost
// counter its probe advances.
type Unit int

const (
	// Sweeps: one fixed-point sweep per index step.
	Sweeps Unit = iota
	// Cycles: one multigrid cycle per index step.
	Cycles
	// Restarts: the index counts matrix–vector products (added to
	// Sweeps) and every report closes one GMRES restart.
	Restarts
)

// Probe is one solve's view of its run, returned by Begin. The
// per-iteration calls are allocation-free; without a run they only check
// the context.
type Probe struct {
	ctx    context.Context
	run    *Run
	name   string
	unit   Unit
	point  string
	pool   *spmat.Pool
	stats0 spmat.PoolStats
	start  time.Time // when the span opened; zero without a sink
	last   int       // iteration index of the previous report
	work   Work
}

// Begin looks up the run ctx carries and opens a span named name around
// one solve. unit says what the solver's iteration index counts, point
// names the fault-injection point its iterations pass ("" for none), and
// pool, when non-nil, is the worker team whose kernel counters the run's
// meter is charged with.
func Begin(ctx context.Context, name string, unit Unit, point string, pool *spmat.Pool) Probe {
	p := Probe{ctx: ctx, run: RunFrom(ctx), name: name, unit: unit, point: point, pool: pool}
	if r := p.run; r != nil {
		if r.Sink != nil {
			p.start = time.Now()
			r.Emit(Event{T: p.start.UnixNano(), Kind: "span_start", Name: name})
		}
		if r.Meter != nil {
			p.stats0 = pool.Stats()
		}
	}
	return p
}

// Iter reports one finished iteration: it emits an iter event, feeds the
// residual to the meter, and returns the context's error or the fault
// injected at the probe's point. The solver stops on a non-nil return.
func (p *Probe) Iter(iter int, residual float64) error {
	if r := p.run; r != nil {
		if r.Sink != nil {
			r.Emit(Event{T: time.Now().UnixNano(), Kind: "iter", Name: p.name, Iter: iter, Residual: residual})
		}
		if r.Meter != nil {
			r.Meter.AddResidual(residual)
		}
		n := int64(iter - p.last)
		p.last = iter
		switch p.unit {
		case Cycles:
			p.work.Cycles += n
		case Restarts:
			p.work.Sweeps += n
			p.work.Restarts++
		default:
			p.work.Sweeps += n
		}
	}
	return p.check()
}

// Progress emits one worker-progress event under name and, like Iter,
// returns the context's error or the injected fault.
func (p *Probe) Progress(name string, worker int, done, total int64) error {
	if p.run != nil && p.run.Sink != nil {
		p.run.Emit(Event{T: time.Now().UnixNano(), Kind: "progress", Name: name, Worker: worker, Done: done, Total: total})
	}
	return p.check()
}

// check returns the context's error, then the fault injected at the
// probe's point.
func (p *Probe) check() error {
	if p.ctx != nil {
		if err := p.ctx.Err(); err != nil {
			return err
		}
	}
	if p.run != nil && p.run.Fault != nil && p.point != "" {
		return p.run.Fault(p.ctx, p.point)
	}
	return nil
}

// End adds the probe's work to the run's meter — the iterations it saw
// and its pool's kernel delta, plus whatever the solver puts in w
// (workspace, per-level attribution) — and closes the span: the span_end
// carries w.Levels, so a traced multigrid solve states its per-level
// work once, on its closing event.
func (p *Probe) End(w Work) {
	r := p.run
	if r == nil {
		return
	}
	if r.Meter != nil {
		w.Cycles += p.work.Cycles
		w.Sweeps += p.work.Sweeps
		w.Restarts += p.work.Restarts
		w.Pool = p.pool.Stats().Sub(p.stats0)
		r.Meter.AddWork(w)
	}
	if r.Sink != nil {
		end := time.Now()
		r.Emit(Event{T: end.UnixNano(), Kind: "span_end", Name: p.name, DurNS: int64(end.Sub(p.start)), Levels: w.Levels})
	}
}
