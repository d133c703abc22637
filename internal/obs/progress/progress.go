// Package progress is the per-solve table of the service: a Tracker
// keeps one live row per registered solve (phase, iteration, current
// residual, geometric-decay ETA) fed by the solve's run — its Handle is
// one of the run's event sinks, so the per-cycle multigrid residuals,
// the per-sweep stationary iterations and the engine spans reach it
// with no instrumentation of its own in the solver loops — and, once
// the solve finishes, the row's cost.SolveReport in a bounded tail of
// finished rows. On top of the live rows sits a watchdog (watchdog.go)
// that classifies each solve as progressing, stalled, or diverging. It
// only reports: no verdict stops a solve.
//
// The package keeps the repository's zero-cost-when-disabled contract: a
// nil *Tracker is a valid no-op (Begin returns a nil *Handle whose
// methods do nothing), so code paths that do not opt in pay one nil
// check. When enabled, a Handle's Emit is allocation-free: it updates a
// fixed-size per-solve record under a mutex and forwards to subscribers
// only when any exist.
package progress

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cdrstoch/internal/obs"
	"cdrstoch/internal/obs/cost"
)

// DefaultKeep is the number of finished rows a Tracker keeps when the
// caller does not choose.
const DefaultKeep = 512

// Solve states as classified by the watchdog.
const (
	StateProgressing = "progressing"
	StateStalled     = "stalled"
	StateDiverging   = "diverging"
)

// Config parameterizes a Tracker.
type Config struct {
	// Registry receives the progress.* and watchdog.* metrics. May be nil.
	Registry *obs.Registry
	// Out receives the watchdog's typed events. The server passes its
	// flight recorder, so stall/divergence verdicts land in the same
	// postmortem trail as the solver events that led to them, and
	// /debug/progress reads its watchdog tail from there. May be nil.
	Out obs.Tracer
	// Tol is the residual the ETA extrapolates to. Default 1e-12 (the
	// multigrid default tolerance).
	Tol float64
	// StallWindow is the staleness horizon: a solve with no event, or no
	// best-residual improvement, for longer than this is stalled.
	// Default 10s.
	StallWindow time.Duration
	// Interval is the watchdog check period. Default 1s.
	Interval time.Duration
	// DivergeChecks is the number of consecutive watchdog checks with a
	// growing residual before a solve is classified diverging. Default 3.
	DivergeChecks int
	// Keep bounds the tail of finished rows; each Finish beyond it evicts
	// the oldest row and counts it in Dropped. Default DefaultKeep.
	Keep int
}

func (c Config) withDefaults() Config {
	if c.Tol <= 0 {
		c.Tol = 1e-12
	}
	if c.StallWindow <= 0 {
		c.StallWindow = 10 * time.Second
	}
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.DivergeChecks <= 0 {
		c.DivergeChecks = 3
	}
	if c.Keep <= 0 {
		c.Keep = DefaultKeep
	}
	return c
}

// Tracker is the per-solve table: live rows of in-flight solves and a
// bounded tail of finished ones. All methods are safe for concurrent
// use, and every method on a nil *Tracker is a no-op.
type Tracker struct {
	cfg Config
	reg *obs.Registry

	mu     sync.Mutex
	seq    uint64
	solves map[uint64]*solveState
	// done is the finished tail, a ring of at most cfg.Keep reports;
	// finished counts every report ever filed and is its write cursor.
	done     []cost.SolveReport
	finished uint64
	subs     map[string]map[*Sub]struct{}
	nsubs    atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New returns a ready Tracker. Call Start to run the watchdog and Stop
// during shutdown.
func New(cfg Config) *Tracker {
	cfg = cfg.withDefaults()
	t := &Tracker{
		cfg:    cfg,
		reg:    cfg.Registry,
		solves: make(map[uint64]*solveState),
		subs:   make(map[string]map[*Sub]struct{}),
		stop:   make(chan struct{}),
	}
	// The gauges are computed at snapshot time; the counters are touched
	// eagerly so every metric family the tracker can emit exists from the
	// first scrape (and is covered by the metrics-name lint).
	t.reg.GaugeFunc("progress.solves_inflight", func() float64 { return float64(t.inflight()) })
	t.reg.GaugeFunc("progress.solves_stalled", func() float64 { return float64(t.countState(StateStalled)) })
	t.reg.GaugeFunc("progress.subscribers", func() float64 { return float64(t.nsubs.Load()) })
	for _, name := range []string{
		"progress.solves_started", "progress.solves_finished",
		"progress.solves_stalled_total", "progress.events_dropped",
		"watchdog.checks_total", "watchdog.divergences_total",
		"watchdog.recoveries_total",
	} {
		t.reg.Counter(name)
	}
	return t
}

// solveState is one registered solve's live record. Its own mutex keeps
// the event hot path off the tracker lock.
type solveState struct {
	mu       sync.Mutex
	id       uint64
	trace    string
	parent   string
	endpoint string
	key      string

	startedAt   time.Time
	lastEvent   time.Time
	lastImprove time.Time
	phase       string
	solver      string // name of the solver whose iterations are being fitted
	iter        int
	residual    float64
	best        float64 // lowest residual seen; +Inf until the first one
	est         estimator

	// Watchdog bookkeeping: the residual at the previous check and how
	// many consecutive checks it grew across.
	state     string
	lastCheck float64
	haveCheck bool
	grow      int
	done      bool
}

// Handle is one solve's registration: an obs.Tracer the engine puts in
// the solve's run sink, so the events that update this record are
// attributed by construction — no trace-matching, which would misattribute
// concurrent solves sharing a request trace (sweep fan-out). A nil
// *Handle is a valid no-op.
type Handle struct {
	t *Tracker
	s *solveState
}

// Begin registers a solve and returns its handle. endpoint and key label
// the record; the trace identity is read from ctx.
func (t *Tracker) Begin(ctx context.Context, endpoint, key string) *Handle {
	if t == nil {
		return nil
	}
	trace, parent := obs.TraceFromContext(ctx)
	now := time.Now()
	s := &solveState{
		trace:       trace,
		parent:      parent,
		endpoint:    endpoint,
		key:         key,
		startedAt:   now,
		lastEvent:   now,
		lastImprove: now,
		best:        math.Inf(1),
		state:       StateProgressing,
	}
	t.mu.Lock()
	t.seq++
	s.id = t.seq
	t.solves[s.id] = s
	t.mu.Unlock()
	t.reg.Counter("progress.solves_started").Inc()
	t.publish(trace, obs.Event{
		T: now.UnixNano(), Kind: "solve_start", Name: endpoint,
		Trace: trace, Parent: parent,
	})
	return &Handle{t: t, s: s}
}

// Emit feeds one solver event into the record: spans set the phase, iter
// events advance the iteration/residual and the decay estimator, and
// everything refreshes the heartbeat. Allocation-free; forwards to
// subscribers only when any exist.
func (h *Handle) Emit(e obs.Event) {
	if h == nil {
		return
	}
	now := time.Now()
	s := h.s
	s.mu.Lock()
	s.lastEvent = now
	switch e.Kind {
	case "span_start":
		s.phase = e.Name
	case "iter":
		if e.Name != s.solver {
			// A second solver within one solve (the slip endpoint's
			// quasi-stationary refinement after multigrid) restarts the
			// decay fit and the watchdog's residual bookkeeping: its
			// residuals say nothing about the previous solver's.
			s.solver = e.Name
			s.est = estimator{}
			s.best = math.Inf(1)
			s.lastImprove = now
			s.haveCheck, s.grow = false, 0
		}
		s.phase = e.Name
		s.iter = e.Iter
		s.residual = e.Residual
		s.est.add(e.Iter, now.UnixNano(), e.Residual)
		if e.Residual > 0 && e.Residual < s.best {
			s.best = e.Residual
			s.lastImprove = now
		}
	}
	s.mu.Unlock()
	h.t.publish(s.trace, e)
}

// Finish closes a solve's row with its SolveReport: the live row leaves
// the in-flight table and rep joins the tail of finished rows, evicting
// the oldest when the tail is full; subscribers then receive a terminal
// solve_end event carrying the final iteration, residual and, on
// failure, rep.Err. A nil handle files rep alone, so a solve that failed
// before it got a slot, and never began, still leaves its row.
func (t *Tracker) Finish(h *Handle, rep cost.SolveReport) {
	if t == nil {
		return
	}
	var end obs.Event
	if h != nil {
		s := h.s
		s.mu.Lock()
		s.done = true
		end = obs.Event{
			T: time.Now().UnixNano(), Kind: "solve_end", Name: s.endpoint,
			Iter: s.iter, Residual: s.residual, Trace: s.trace, Parent: s.parent, Reason: rep.Err,
		}
		s.mu.Unlock()
	}
	t.mu.Lock()
	if h != nil {
		delete(t.solves, h.s.id)
	}
	if len(t.done) < t.cfg.Keep {
		t.done = append(t.done, rep)
	} else {
		t.done[t.finished%uint64(t.cfg.Keep)] = rep
	}
	t.finished++
	t.mu.Unlock()
	if h != nil {
		t.reg.Counter("progress.solves_finished").Inc()
		t.publish(end.Trace, end)
	}
}

// Finished returns the finished rows matching f, newest first, capped by
// f.Limit and copied out so the caller can render without the lock.
func (t *Tracker) Finished(f cost.Filter) []cost.SolveReport {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []cost.SolveReport
	for i := range t.done {
		rep := &t.done[(t.finished-1-uint64(i))%uint64(t.cfg.Keep)]
		if !f.Match(rep) {
			continue
		}
		out = append(out, *rep)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// Dropped reports how many finished rows the full tail has evicted.
func (t *Tracker) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.finished - uint64(len(t.done))
}

func (t *Tracker) inflight() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.solves)
}

func (t *Tracker) countState(state string) int {
	if t == nil {
		return 0
	}
	n := 0
	for _, s := range t.states() {
		s.mu.Lock()
		if s.state == state {
			n++
		}
		s.mu.Unlock()
	}
	return n
}

// states snapshots the in-flight records under the tracker lock.
func (t *Tracker) states() []*solveState {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*solveState, 0, len(t.solves))
	for _, s := range t.solves {
		out = append(out, s)
	}
	return out
}

// SolveProgress is one in-flight solve as reported by Snapshot,
// /debug/progress, and JobView.Progress. EtaSeconds is present only when
// the decay fit predicts convergence (negative slope, at least two
// residuals); SlopePerIter is the fitted log10-residual slope in decades
// per iteration, 0 until the fit exists.
type SolveProgress struct {
	ID           uint64    `json:"id"`
	Trace        string    `json:"trace,omitempty"`
	Endpoint     string    `json:"endpoint,omitempty"`
	SpecKey      string    `json:"spec_key,omitempty"`
	Phase        string    `json:"phase,omitempty"`
	State        string    `json:"state"`
	Iter         int       `json:"iter"`
	Residual     float64   `json:"residual,omitempty"`
	BestResidual float64   `json:"best_residual,omitempty"`
	SlopePerIter float64   `json:"slope_per_iter,omitempty"`
	EtaSeconds   *float64  `json:"eta_seconds,omitempty"`
	StartedAt    time.Time `json:"started_at"`
	AgeMS        float64   `json:"age_ms"`
	IdleMS       float64   `json:"idle_ms"`
}

// progressLocked assembles the exported view; s.mu must be held.
func (s *solveState) progressLocked(now time.Time, tol float64) SolveProgress {
	p := SolveProgress{
		ID:        s.id,
		Trace:     s.trace,
		Endpoint:  s.endpoint,
		SpecKey:   s.key,
		Phase:     s.phase,
		State:     s.state,
		Iter:      s.iter,
		Residual:  s.residual,
		StartedAt: s.startedAt,
		AgeMS:     float64(now.Sub(s.startedAt)) / float64(time.Millisecond),
		IdleMS:    float64(now.Sub(s.lastEvent)) / float64(time.Millisecond),
	}
	if !math.IsInf(s.best, 1) {
		p.BestResidual = s.best
	}
	if slope, ok := s.est.slope(); ok {
		p.SlopePerIter = slope
	}
	if eta, ok := s.est.eta(tol); ok {
		secs := eta.Seconds()
		p.EtaSeconds = &secs
	}
	return p
}

// Snapshot returns the in-flight solves, oldest registration first.
func (t *Tracker) Snapshot() []SolveProgress {
	if t == nil {
		return nil
	}
	now := time.Now()
	states := t.states()
	out := make([]SolveProgress, 0, len(states))
	for _, s := range states {
		s.mu.Lock()
		if !s.done {
			out = append(out, s.progressLocked(now, t.cfg.Tol))
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// LatestByTrace returns the most recently registered in-flight solve
// carrying the given trace ID — the enrichment /v1/jobs/{id} uses while a
// job runs.
func (t *Tracker) LatestByTrace(trace string) (SolveProgress, bool) {
	if t == nil || trace == "" {
		return SolveProgress{}, false
	}
	now := time.Now()
	var best SolveProgress
	found := false
	for _, s := range t.states() {
		s.mu.Lock()
		if !s.done && s.trace == trace && (!found || s.id > best.ID) {
			best = s.progressLocked(now, t.cfg.Tol)
			found = true
		}
		s.mu.Unlock()
	}
	return best, found
}
