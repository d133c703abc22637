// Package obs is the observability layer of the repository: a lightweight
// metrics registry (counters, gauges, timers, log-bucketed histograms)
// with snapshot APIs (aligned text, JSON, Prometheus text exposition), a
// Tracer interface with a JSON-lines sink for structured solver events
// (spans, per-iteration residuals, per-level multigrid work on the
// solve's closing span, Monte Carlo worker progress), an always-on FlightRecorder ring holding the most
// recent events for postmortem dumps, and the Run: the one per-solve
// handle, carried in the solve's context, that stamps the request's
// trace identity onto events and routes a solver's reports to the event
// sink, the cost meter and the fault hook.
//
// The package is built around a zero-cost-when-disabled contract: a
// solver's Probe without a run only checks its context, and every
// registry accessor tolerates a nil *Registry, so instrumented hot paths
// pay a nil check (no time.Now call, no allocation) when observability
// is off. Solver loops therefore carry their probes unconditionally;
// owners enable them by putting a Run in the context.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64 metric. All methods are safe
// for concurrent use and tolerate a nil receiver (no-op / zero value).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float64 metric. All methods are safe for
// concurrent use and tolerate a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last recorded value (0 before the first Set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Timer accumulates duration observations. All methods are safe for
// concurrent use and tolerate a nil receiver.
type Timer struct {
	mu    sync.Mutex
	count int64
	total time.Duration
	min   time.Duration
	max   time.Duration
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.count == 0 || d < t.min {
		t.min = d
	}
	if d > t.max {
		t.max = d
	}
	t.count++
	t.total += d
	t.mu.Unlock()
}

// Time starts a stopwatch; the returned function stops it and records the
// elapsed duration. Usage: defer reg.Timer("solve").Time()().
func (t *Timer) Time() func() {
	start := time.Now()
	return func() { t.Observe(time.Since(start)) }
}

// Stats returns the accumulated statistics.
func (t *Timer) Stats() TimerStats {
	if t == nil {
		return TimerStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := TimerStats{Count: t.count, Total: t.total, Min: t.min, Max: t.max}
	if t.count > 0 {
		s.Mean = t.total / time.Duration(t.count)
	}
	return s
}

// TimerStats summarizes a Timer. Durations serialize as nanoseconds.
type TimerStats struct {
	Count int64         `json:"count"`
	Total time.Duration `json:"total_ns"`
	Min   time.Duration `json:"min_ns"`
	Max   time.Duration `json:"max_ns"`
	Mean  time.Duration `json:"mean_ns"`
}

// Registry is a name-indexed collection of metrics. The zero value is not
// usable; construct with NewRegistry. A nil *Registry is a valid no-op
// sink: accessors return nil metrics whose methods do nothing, so
// instrumented code can hold an optional registry without nil checks.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	timers     map[string]*Timer
	histograms map[string]*Histogram
	gaugeFuncs map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		timers:     make(map[string]*Timer),
		histograms: make(map[string]*Histogram),
		gaugeFuncs: make(map[string]func() float64),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the named timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.timers[name]
	if t == nil {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// GaugeFunc registers a gauge whose value is computed at snapshot time
// by calling fn — the right shape for values the process already tracks
// elsewhere (uptime, ring drop counts, queue depths). fn must be safe
// for concurrent use and must not call back into the registry. A
// computed gauge shares the gauge namespace: it shadows any stored Gauge
// of the same name in snapshots. Nil registry or nil fn is a no-op.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.gaugeFuncs[name] = fn
	r.mu.Unlock()
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]float64        `json:"gauges,omitempty"`
	Timers     map[string]TimerStats     `json:"timers,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
}

// Snapshot copies the current value of every metric. A nil registry
// yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Timers:     map[string]TimerStats{},
		Histograms: map[string]HistogramStats{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	timers := make(map[string]*Timer, len(r.timers))
	for k, v := range r.timers {
		timers[k] = v
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		histograms[k] = v
	}
	gaugeFuncs := make(map[string]func() float64, len(r.gaugeFuncs))
	for k, v := range r.gaugeFuncs {
		gaugeFuncs[k] = v
	}
	r.mu.Unlock()
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	// Computed gauges run after the unlock (they may be slow or sample
	// other locks) and win name conflicts with stored gauges.
	for k, fn := range gaugeFuncs {
		s.Gauges[k] = fn()
	}
	for k, v := range timers {
		s.Timers[k] = v.Stats()
	}
	for k, v := range histograms {
		s.Histograms[k] = v.Stats()
	}
	return s
}

// WriteText renders the snapshot as an aligned table with one metric per
// line, sorted by name within each metric family.
func (s Snapshot) WriteText(w io.Writer) error {
	width := 0
	for _, m := range []int{maxKeyLen(s.Counters), maxKeyLen(s.Gauges), maxKeyLen(s.Timers), maxKeyLen(s.Histograms)} {
		if m > width {
			width = m
		}
	}
	if width < len("metric") {
		width = len("metric")
	}
	if _, err := fmt.Fprintf(w, "%-*s  %s\n", width, "metric", "value"); err != nil {
		return err
	}
	for _, k := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "%-*s  %d\n", width, k, s.Counters[k]); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "%-*s  %g\n", width, k, s.Gauges[k]); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(s.Timers) {
		t := s.Timers[k]
		if _, err := fmt.Fprintf(w, "%-*s  count=%d total=%v mean=%v min=%v max=%v\n",
			width, k, t.Count, t.Total, t.Mean, t.Min, t.Max); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(s.Histograms) {
		h := s.Histograms[k]
		if _, err := fmt.Fprintf(w, "%-*s  count=%d sum=%g p50=%g p90=%g p99=%g\n",
			width, k, h.Count, h.Sum, h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99)); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the snapshot as a single JSON object.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(s)
}

// SnapshotJSON returns the current snapshot as one newline-terminated JSON
// object — byte-identical to what Snapshot().WriteJSON would produce
// (encoding/json sorts map keys, so the bytes are deterministic for a
// given metric state). cdrserved's /metrics endpoint serves exactly these
// bytes. A nil registry yields an empty snapshot object.
func (r *Registry) SnapshotJSON() ([]byte, error) {
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func maxKeyLen[V any](m map[string]V) int {
	n := 0
	for k := range m {
		if len(k) > n {
			n = len(k)
		}
	}
	return n
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
