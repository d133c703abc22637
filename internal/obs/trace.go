package obs

import (
	"math"
	"sync"
)

// Event is one structured observability record. Kind discriminates the
// payload; unused fields stay at their zero value and are omitted from the
// JSON encoding where possible.
//
// Kinds emitted by this repository:
//
//	span_start / span_end  wall-clock span around a named operation
//	                       (span_end carries DurNS; a multigrid solve's
//	                       span_end also carries its per-level Levels)
//	iter                   one solver iteration: Iter, Residual
//	progress               Monte Carlo worker progress: Worker, Done, Total
//	solve_start/solve_end  one tracked solve's lifetime (obs/progress);
//	                       solve_end carries the final Iter/Residual and,
//	                       on failure, the error in Reason
//	watchdog               a watchdog classification transition; Name is the
//	                       new state (stalled, diverging, recovered,
//	                       canceled) and Reason says why
type Event struct {
	// T is the event timestamp in Unix nanoseconds.
	T int64 `json:"t"`
	// Kind is the event discriminator (see the package list above).
	Kind string `json:"kind"`
	// Name identifies the emitting component ("power", "multigrid",
	// "bitsim", "cdranalyze.solve", ...).
	Name string `json:"name"`
	// Iter is the iteration, sweep, or cycle number (1-based).
	Iter int `json:"iter,omitempty"`
	// Residual is the convergence measure after this iteration.
	Residual float64 `json:"residual,omitempty"`
	// Worker, Done, and Total describe simulation progress.
	Worker int   `json:"worker,omitempty"`
	Done   int64 `json:"done,omitempty"`
	Total  int64 `json:"total,omitempty"`
	// DurNS is the span duration (span_end only).
	DurNS int64 `json:"dur_ns,omitempty"`
	// Levels is a multigrid solve's per-level work, finest first
	// (span_end only): the visits and smoothing time its meter sums.
	Levels []LevelStat `json:"levels,omitempty"`
	// Trace is the request-scoped trace ID the event belongs to; Parent
	// is the root span ID of the request or job that initiated the solve.
	// The emitting Run stamps both; they stay empty (and absent from the
	// JSON encoding) outside traced requests.
	Trace  string `json:"trace,omitempty"`
	Parent string `json:"parent,omitempty"`
	// Reason explains watchdog transitions and solve_end failures
	// ("no heartbeat within 10s", "context canceled", ...).
	Reason string `json:"reason,omitempty"`
}

// Tracer is the sink for structured events. Implementations must be safe
// for concurrent use. Solvers never hold one: they report through the
// Probe of the Run their context carries, whose Sink is a Tracer.
type Tracer interface {
	Emit(e Event)
}

// Collector is a Tracer that records events in memory, optionally
// forwarding each one to a next sink. It backs post-hoc analyses such as
// residual-decay slopes without requiring a file sink.
type Collector struct {
	mu     sync.Mutex
	events []Event
	next   Tracer
}

// NewCollector returns a collector forwarding to next (which may be nil).
func NewCollector(next Tracer) *Collector {
	return &Collector{next: next}
}

// Emit records the event and forwards it.
func (c *Collector) Emit(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
	if c.next != nil {
		c.next.Emit(e)
	}
}

// Events returns a copy of the recorded events in emission order.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// Reset discards the recorded events.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.events = nil
	c.mu.Unlock()
}

// DecaySlope fits log10(residual) against the iteration index over the
// "iter" events carrying the given name and returns the least-squares
// slope in decades per iteration (negative when converging) together with
// the number of points used. Events with non-positive residuals are
// skipped; fewer than two usable points yield (NaN, n).
func DecaySlope(events []Event, name string) (float64, int) {
	var xs, ys []float64
	for _, e := range events {
		if e.Kind != "iter" || e.Name != name || e.Residual <= 0 {
			continue
		}
		xs = append(xs, float64(e.Iter))
		ys = append(ys, math.Log10(e.Residual))
	}
	n := len(xs)
	if n < 2 {
		return math.NaN(), n
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := float64(n)*sxx - sx*sx
	if den == 0 {
		return math.NaN(), n
	}
	return (float64(n)*sxy - sx*sy) / den, n
}
