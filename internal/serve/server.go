package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"cdrstoch/internal/buildinfo"
	"cdrstoch/internal/core"
	"cdrstoch/internal/faults"
	"cdrstoch/internal/obs"
	"cdrstoch/internal/obs/cost"
	"cdrstoch/internal/obs/progress"
)

// ServerConfig parameterizes a Server.
type ServerConfig struct {
	// Engine configures the solve/cache layer. Its Registry and Tracer
	// default to the server-level ones when unset.
	Engine EngineConfig
	// Workers is the async job worker count. Default 2.
	Workers int
	// QueueDepth bounds the async queue; a full queue answers 429.
	// Default 8.
	QueueDepth int
	// SyncTimeout caps synchronous request handling. Solves that exceed it
	// are canceled at the next solver iteration boundary and the request
	// answers 504. Default 120s.
	SyncTimeout time.Duration
	// MaxBodyBytes caps request bodies. Default 1 MiB.
	MaxBodyBytes int64
	// Registry receives all serve.* and http metrics; also the body of
	// /metrics. May be nil.
	Registry *obs.Registry
	// Tracer receives solver events for cache-miss solves. May be nil.
	// The server always tees the flight recorder in front of it, so a nil
	// Tracer still leaves the postmortem ring populated.
	Tracer obs.Tracer
	// FlightSize bounds the always-on flight recorder ring (recent solver
	// events kept for postmortem dumps). Default obs.DefaultFlightSize.
	FlightSize int
	// ErrorLog receives the flight-recorder dump when a solve fails with
	// cancellation or non-convergence. Nil disables log dumps (the dump
	// still rides the error response).
	ErrorLog *log.Logger
	// Faults arms the fault-injection points across the service (engine,
	// cache, singleflight, jobs) and is every solve's run fault hook
	// (solver cycles). Nil disables injection at zero cost. cdrserved
	// arms it from CDR_FAULTS.
	Faults *faults.Injector
	// CostRingSize bounds the progress table's tail of finished rows,
	// the SolveReports behind /debug/solves. Default progress.DefaultKeep.
	CostRingSize int
	// StallWindow is the watchdog's staleness window: a solve with no
	// events or no residual improvement for this long is classified
	// stalled. The watchdog only reports: a stalled solve runs on, bounded
	// by SyncTimeout (sync requests) and the multigrid cycle cap.
	// Default 10s.
	StallWindow time.Duration
	// WatchdogInterval is the watchdog check cadence. Default 1s.
	WatchdogInterval time.Duration
	// DivergeChecks is how many consecutive residual-growth checks flag a
	// solve diverging. Default 3.
	DivergeChecks int
	// EventsHeartbeat is the SSE keep-alive comment cadence on
	// /v1/jobs/{id}/events. Default 5s.
	EventsHeartbeat time.Duration
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.SyncTimeout <= 0 {
		c.SyncTimeout = 120 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Engine.Registry == nil {
		c.Engine.Registry = c.Registry
	}
	if c.Engine.Tracer == nil {
		c.Engine.Tracer = c.Tracer
	}
	if c.Engine.Faults == nil {
		c.Engine.Faults = c.Faults
	}
	if c.EventsHeartbeat <= 0 {
		c.EventsHeartbeat = 5 * time.Second
	}
	return c
}

// Server wires the Engine and the Jobs queue to HTTP. Construct with
// NewServer, mount Handler on an http.Server, and Close during shutdown
// (after http.Server.Shutdown) to drain queued jobs.
type Server struct {
	cfg      ServerConfig
	engine   *Engine
	jobs     *Jobs
	reg      *obs.Registry
	flight   *obs.FlightRecorder
	progress *progress.Tracker
}

// NewServer returns a ready Server.
func NewServer(cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	// The flight recorder sits in front of any configured tracer: always
	// on, overwrite-oldest, so every solve leaves a postmortem trail even
	// when nothing else is listening.
	flight := obs.NewFlightRecorder(cfg.FlightSize)
	cfg.Engine.Tracer = obs.Tee(flight, cfg.Engine.Tracer)
	// The progress tracker is the per-solve table: it watches every
	// cache-miss solve and keeps its report once it finishes. Its
	// watchdog events land in the flight recorder, the postmortem trail
	// that /debug/progress also reads its watchdog tail from. It must
	// exist before the engine so the engine can put per-solve handles in
	// each solve's run sink.
	prog := progress.New(progress.Config{
		Registry:      cfg.Registry,
		Out:           flight,
		Tol:           cfg.Engine.Multigrid.Tol,
		StallWindow:   cfg.StallWindow,
		Interval:      cfg.WatchdogInterval,
		DivergeChecks: cfg.DivergeChecks,
		Keep:          cfg.CostRingSize,
	})
	cfg.Engine.Progress = prog
	s := &Server{
		cfg:      cfg,
		engine:   NewEngine(cfg.Engine),
		reg:      cfg.Registry,
		flight:   flight,
		progress: prog,
		jobs: NewJobs(JobsConfig{
			Workers:  cfg.Workers,
			Depth:    cfg.QueueDepth,
			Registry: cfg.Registry,
			Faults:   cfg.Faults,
		}),
	}
	// Process identity and drop-count exports. Start time is a constant
	// gauge; uptime and the drop counters are computed at snapshot time,
	// so silent event/report loss is visible on every /metrics scrape.
	s.reg.Gauge("process.start_time_unix_seconds").Set(float64(buildinfo.StartTime().Unix()))
	s.reg.GaugeFunc("process.uptime_seconds", func() float64 { return buildinfo.Uptime().Seconds() })
	s.reg.GaugeFunc("obs.flight_dropped", func() float64 { return float64(flight.Dropped()) })
	s.reg.GaugeFunc("cost.reports_dropped", func() float64 { return float64(prog.Dropped()) })
	if cl := cfg.Engine.CostLog; cl != nil {
		s.reg.GaugeFunc("cost.log_dropped", func() float64 { return float64(cl.Dropped()) })
	}
	if j, ok := cfg.Tracer.(*obs.JSONL); ok {
		s.reg.GaugeFunc("obs.jsonl_dropped", func() float64 { return float64(j.Dropped()) })
	}
	prog.Start()
	return s
}

// Engine exposes the underlying engine (tests, warm-up solves).
func (s *Server) Engine() *Engine { return s.engine }

// Progress exposes the live progress tracker (tests, embedding).
func (s *Server) Progress() *progress.Tracker { return s.progress }

// Close drains the async queue: queued jobs still run, new submissions
// are refused. Call after the http.Server has stopped accepting. The
// watchdog stops only after the drain, so it keeps classifying the jobs
// that drain.
func (s *Server) Close() {
	s.jobs.Close()
	s.progress.Stop()
}

// CancelJobs aborts running jobs; for hard shutdown after a drain
// deadline.
func (s *Server) CancelJobs() { s.jobs.CancelAll() }

// Handler returns the service mux wrapped in the tracing middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleSolve("analyze", s.engine.AnalyzeBackend))
	mux.HandleFunc("POST /v1/slip", s.handleSolve("slip", func(ctx context.Context, spec core.Spec, backend string) ([]byte, bool, error) {
		// The slip endpoint's quasi-stationary refinement needs the
		// explicit matrix, which Slip asks for itself; refuse the field
		// rather than silently ignore it.
		if backend != "" {
			return nil, false, badRequestf("backend %q not supported on /v1/slip", backend)
		}
		return s.engine.Slip(ctx, spec)
	}))
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/flight", s.handleFlight)
	mux.HandleFunc("GET /debug/solves", s.handleSolves)
	mux.HandleFunc("GET /debug/progress", s.handleProgress)
	return s.traced(s.recovered(mux))
}

// recovered is the panic-recovery middleware: a panicking handler (or a
// solver panic that escaped every inner shield) answers 500 with the
// trace ID and flight tail instead of killing the connection — and never
// the process. It sits inside traced, so the X-Trace-Id response header
// is already set when the recovery body is written. http.ErrAbortHandler
// is re-raised: it is net/http's own control flow, not a failure.
func (s *Server) recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				s.reg.Counter("serve.panics_recovered").Inc()
				s.writeError(w, r, &PanicError{Value: rec, Stack: debug.Stack()})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// traced is the tracing middleware: every request gets a trace ID
// (adopted from X-Trace-Id when the client sent one, minted otherwise)
// and a root span ID, carried by the request context into the engine and
// solvers, stamped onto every event they emit, and echoed back in the
// X-Trace-Id response header so clients can correlate responses with
// traces and flight-recorder dumps.
func (s *Server) traced(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace := r.Header.Get("X-Trace-Id")
		if trace == "" {
			trace = obs.NewTraceID()
		}
		span := obs.NewTraceID()
		w.Header().Set("X-Trace-Id", trace)
		next.ServeHTTP(w, r.WithContext(obs.ContextWithTrace(r.Context(), trace, span)))
	})
}

// errorBody is the uniform error response shape. Solver failures
// (cancellation, timeout, non-convergence, internal errors) carry the
// request's trace ID and the flight-recorder tail for that trace, so the
// evidence of what the solver was doing ships with the failure.
type errorBody struct {
	Error   string      `json:"error"`
	TraceID string      `json:"trace_id,omitempty"`
	Flight  []obs.Event `json:"flight,omitempty"`
}

// flightTailMax bounds the flight events attached to one error response.
const flightTailMax = 64

// flightTraceMax bounds the events served by /v1/jobs/{id}/trace.
const flightTraceMax = 512

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

// writeError maps engine errors onto HTTP statuses: client errors to 400,
// deadline overruns to 504, client disconnects to 499 (nginx's
// convention; the client is gone either way), everything else to 500.
// Solver failures (every status outside the client-fault range) attach
// the request's flight-recorder tail and dump it to the error log.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	var pe *PanicError
	if errors.As(err, &pe) {
		s.reg.Counter("serve.panic_errors").Inc()
	}
	code := http.StatusInternalServerError
	switch {
	case pe != nil:
		// Recovered panics are always 500s, even when the panic value is
		// an injected cancellation-flavored error.
	case errors.Is(err, ErrBadRequest):
		code = http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		code = 499
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown):
		code = http.StatusServiceUnavailable
	}
	body := errorBody{Error: err.Error()}
	if code >= 500 || code == 499 {
		if trace, _ := obs.TraceFromContext(r.Context()); trace != "" {
			body.TraceID = trace
			body.Flight = s.flight.TailFor(trace, flightTailMax)
			s.dumpFlight(trace, err, body.Flight)
		}
	}
	s.reg.Counter(fmt.Sprintf("serve.http_%d", code)).Inc()
	s.writeJSON(w, code, body)
}

// dumpFlight writes a failed solve's flight-recorder tail to the error
// log, one JSON line per event, so postmortems survive even when the
// client discards the error response.
func (s *Server) dumpFlight(trace string, cause error, events []obs.Event) {
	if s.cfg.ErrorLog == nil {
		return
	}
	s.reg.Counter("serve.flight_dumps").Inc()
	s.cfg.ErrorLog.Printf("trace %s failed: %v; flight tail (%d events):", trace, cause, len(events))
	for _, e := range events {
		if b, err := json.Marshal(e); err == nil {
			s.cfg.ErrorLog.Printf("  %s", b)
		}
	}
}

// writeBody emits a finished engine body, labeling cache disposition.
func (s *Server) writeBody(w http.ResponseWriter, body []byte, cached bool) {
	w.Header().Set("Content-Type", "application/json")
	if cached {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	s.reg.Counter("serve.http_200").Inc()
	// body is the cache/singleflight-shared slice: appending the newline
	// to it would write into the shared backing array and race with
	// concurrent responses serving the same bytes.
	w.Write(body)
	io.WriteString(w, "\n")
}

// solveRequest is the envelope of /v1/analyze and /v1/slip.
type solveRequest struct {
	Spec core.Spec `json:"spec"`
	// Async enqueues the solve and answers 202 with a job ID for
	// /v1/jobs/{id} polling instead of blocking.
	Async bool `json:"async"`
	// Backend selects the transition representation on /v1/analyze:
	// "kron" (or empty, the default) solves matrix-free through the
	// Kronecker descriptor, "explicit" assembles the product TPM. /v1/slip
	// takes no backend: it always solves explicitly.
	Backend string `json:"backend,omitempty"`
}

// syncTimeout resolves the synchronous deadline of a request: the
// server's SyncTimeout, tightened — never loosened — by the client's
// Request-Timeout header. The header value is either a plain number of
// seconds ("2.5") or a Go duration ("750ms"); anything else, or a
// non-positive value, is a 400.
func (s *Server) syncTimeout(r *http.Request) (time.Duration, error) {
	d := s.cfg.SyncTimeout
	h := strings.TrimSpace(r.Header.Get("Request-Timeout"))
	if h == "" {
		return d, nil
	}
	var want time.Duration
	if secs, err := strconv.ParseFloat(h, 64); err == nil {
		want = time.Duration(secs * float64(time.Second))
	} else if dur, err := time.ParseDuration(h); err == nil {
		want = dur
	} else {
		return 0, badRequestf("unparseable Request-Timeout %q", h)
	}
	if want <= 0 {
		return 0, badRequestf("non-positive Request-Timeout %q", h)
	}
	if want < d {
		d = want
	}
	return d, nil
}

// decode parses a request envelope into v, enforcing the body cap.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequestf("decoding body: %v", err)
	}
	return nil
}

// enqueue submits an async job carrying the request's trace ID and
// answers 202 (or 429/503).
func (s *Server) enqueue(w http.ResponseWriter, r *http.Request, run func(context.Context) ([]byte, bool, error)) {
	trace, _ := obs.TraceFromContext(r.Context())
	id, err := s.jobs.Submit(trace, run)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.reg.Counter("serve.http_202").Inc()
	s.writeJSON(w, http.StatusAccepted, JobView{ID: id, Status: StatusQueued, TraceID: trace})
}

// handleSolve serves the shared analyze/slip shape: decode, validate,
// then either enqueue (async) or solve under the request deadline.
func (s *Server) handleSolve(name string, solve func(context.Context, core.Spec, string) ([]byte, bool, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer s.reg.Timer("serve.http_" + name).Time()()
		start := time.Now()
		defer func() { s.reg.Histogram("serve.http_" + name + "_ms").Observe(ms(time.Since(start))) }()
		var req solveRequest
		if err := s.decode(w, r, &req); err != nil {
			s.writeError(w, r, err)
			return
		}
		if err := req.Spec.Validate(); err != nil {
			s.writeError(w, r, badRequestf("invalid spec: %v", err))
			return
		}
		if req.Async {
			spec, backend := req.Spec, req.Backend
			s.enqueue(w, r, func(ctx context.Context) ([]byte, bool, error) {
				return solve(ctx, spec, backend)
			})
			return
		}
		timeout, err := s.syncTimeout(r)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		body, cached, err := solve(ctx, req.Spec, req.Backend)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		s.setCostHeaders(w, r, cached)
		s.writeBody(w, body, cached)
	}
}

// report returns the newest finished row filed under trace, or false
// when the table keeps none.
func (s *Server) report(trace string) (cost.SolveReport, bool) {
	if trace == "" {
		return cost.SolveReport{}, false
	}
	reps := s.progress.Finished(cost.Filter{Trace: trace, Limit: 1})
	if len(reps) == 0 {
		return cost.SolveReport{}, false
	}
	return reps[0], true
}

// setCostHeaders stamps the X-Solve-Cost-* response headers from the
// solve's SolveReport (matched by the request's trace ID among the
// finished rows). Cache hits only carry the cache disposition — their
// body came from an earlier solve whose cost was attributed then. A miss
// served through singleflight sharing has no report under this trace
// either; it degrades to the disposition header the same way.
func (s *Server) setCostHeaders(w http.ResponseWriter, r *http.Request, cached bool) {
	h := w.Header()
	if cached {
		h.Set("X-Solve-Cost-Cache", "hit")
		return
	}
	h.Set("X-Solve-Cost-Cache", "miss")
	trace, _ := obs.TraceFromContext(r.Context())
	rep, ok := s.report(trace)
	if !ok {
		return
	}
	h.Set("X-Solve-Cost-Wall-Ms", strconv.FormatFloat(rep.WallMS(), 'f', 3, 64))
	h.Set("X-Solve-Cost-Cpu-Ms", strconv.FormatFloat(rep.CPUMS(), 'f', 3, 64))
	h.Set("X-Solve-Cost-Cycles", strconv.FormatInt(rep.Cycles, 10))
	h.Set("X-Solve-Cost-Spmvs", strconv.FormatInt(rep.Pool.SpMVs, 10))
	h.Set("X-Solve-Cost-States", strconv.Itoa(rep.States))
	if rep.WarmStarted {
		h.Set("X-Solve-Cost-Warmstart", "1")
	}
}

// setWarmstartHeader stamps X-Solve-Cost-Warmstart: 1 when the request's
// most recent solve report was warm-started — on a batch sweep, that is
// the last point actually solved under this trace.
func (s *Server) setWarmstartHeader(w http.ResponseWriter, r *http.Request) {
	trace, _ := obs.TraceFromContext(r.Context())
	if rep, ok := s.report(trace); ok && rep.WarmStarted {
		w.Header().Set("X-Solve-Cost-Warmstart", "1")
	}
}

// sweepRequest is the envelope of /v1/sweep.
type sweepRequest struct {
	Spec   core.Spec `json:"spec"`
	Param  string    `json:"param"`
	Values []float64 `json:"values"`
	Async  bool      `json:"async"`
	// Batch runs the sweep as a warm-started continuation chain (shared
	// symbolic setup, neighbor-seeded solves) instead of fanning the
	// points out as independent solves. Batch points are solved
	// explicitly and cached in the explicit analyze entry; fan-out points
	// are solved matrix-free and cached in the default entry. The response
	// additionally carries per-point warm_started / reused_setup / cycles
	// fields.
	Batch bool `json:"batch"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	defer s.reg.Timer("serve.http_sweep").Time()()
	start := time.Now()
	defer func() { s.reg.Histogram("serve.http_sweep_ms").Observe(ms(time.Since(start))) }()
	var req sweepRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	if err := req.Spec.Validate(); err != nil {
		s.writeError(w, r, badRequestf("invalid spec: %v", err))
		return
	}
	run := s.engine.Sweep
	if req.Batch {
		run = s.engine.SweepBatch
	}
	if req.Async {
		s.enqueue(w, r, func(ctx context.Context) ([]byte, bool, error) {
			body, err := run(ctx, req.Spec, req.Param, req.Values)
			return body, false, err
		})
		return
	}
	timeout, err := s.syncTimeout(r)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	body, err := run(ctx, req.Spec, req.Param, req.Values)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.setWarmstartHeader(w, r)
	s.writeBody(w, body, false)
}

// jobView resolves a job's current view, enriched with its row in the
// progress table: terminal jobs carry their solve's cost report (when
// the finished tail still keeps it, matched by the submitter's trace ID,
// which the job's context carries), running jobs carry the live progress
// of their in-flight solve (phase, iteration, residual, watchdog state,
// ETA).
func (s *Server) jobView(id string) (JobView, bool) {
	view, ok := s.jobs.Get(id)
	if !ok {
		return JobView{}, false
	}
	switch view.Status {
	case StatusDone, StatusFailed:
		if rep, ok := s.report(view.TraceID); ok {
			rep.Cached = view.Cached
			view.Cost = &rep
		}
	case StatusRunning:
		if p, ok := s.progress.LatestByTrace(view.TraceID); ok {
			view.Progress = &p
		}
	}
	return view, true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	view, ok := s.jobView(r.PathValue("id"))
	if !ok {
		s.writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown or evicted job"})
		return
	}
	s.writeJSON(w, http.StatusOK, view)
}

// jobTraceBody is the response of /v1/jobs/{id}/trace: the solver events
// the flight recorder still retains for the job's trace ID, oldest
// first. Cache-hit jobs legitimately have zero events (nothing solved),
// and very old traces age out of the ring — Retained reports how many
// events the response carries.
type jobTraceBody struct {
	ID       string      `json:"id"`
	TraceID  string      `json:"trace_id"`
	Status   string      `json:"status"`
	Retained int         `json:"retained"`
	Events   []obs.Event `json:"events"`
}

func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	view, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		s.writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown or evicted job"})
		return
	}
	events := s.flight.TailFor(view.TraceID, flightTraceMax)
	if events == nil {
		events = []obs.Event{}
	}
	s.writeJSON(w, http.StatusOK, jobTraceBody{
		ID:       view.ID,
		TraceID:  view.TraceID,
		Status:   view.Status,
		Retained: len(events),
		Events:   events,
	})
}

// flightBody is the /debug/flight response: the most recent retained
// events (bounded by ?limit=), plus how much history has been
// overwritten and how many events this response carries.
type flightBody struct {
	Dropped  uint64      `json:"dropped"`
	Retained int         `json:"retained"`
	Events   []obs.Event `json:"events"`
}

// Debug endpoint response bounds: default and maximum ?limit= values.
// Both /debug/flight and /debug/solves clamp to these so a long-running
// server never returns an unbounded body.
const (
	flightLimitDefault = 1024
	flightLimitMax     = 4096
	solvesLimitDefault = 64
	solvesLimitMax     = 512
)

// queryLimit parses ?limit= with a default and a hard cap. Absent or
// unparseable values select the default; non-positive and oversized
// values clamp into [1, max].
func queryLimit(r *http.Request, def, max int) int {
	n, err := strconv.Atoi(r.URL.Query().Get("limit"))
	if err != nil {
		return def
	}
	if n < 1 {
		return 1
	}
	if n > max {
		return max
	}
	return n
}

func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	limit := queryLimit(r, flightLimitDefault, flightLimitMax)
	events := s.flight.Tail(limit)
	if events == nil {
		events = []obs.Event{}
	}
	s.writeJSON(w, http.StatusOK, flightBody{
		Dropped:  s.flight.Dropped(),
		Retained: len(events),
		Events:   events,
	})
}

// solvesBody is the /debug/solves JSON response: the matching
// SolveReports, newest first, plus the finished tail's loss accounting.
type solvesBody struct {
	Count   int                `json:"count"`
	Dropped uint64             `json:"dropped"`
	Reports []cost.SolveReport `json:"reports"`
}

// handleSolves serves the progress table's finished rows: the per-solve
// cost records of recent solves, filterable by trace ID (?trace=), spec
// key (?spec=), endpoint (?endpoint=), and minimum wall time (?min_ms=),
// newest first, capped by ?limit=. Accept: text/plain renders the human
// cost table (sorted by CPU time); everything else gets JSON.
func (s *Server) handleSolves(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := cost.Filter{
		Trace:    q.Get("trace"),
		SpecKey:  q.Get("spec"),
		Endpoint: q.Get("endpoint"),
		Limit:    queryLimit(r, solvesLimitDefault, solvesLimitMax),
	}
	if minMS, err := strconv.ParseFloat(q.Get("min_ms"), 64); err == nil && minMS > 0 {
		f.MinWall = time.Duration(minMS * float64(time.Millisecond))
	}
	reports := s.progress.Finished(f)
	if acceptsPrometheus(r.Header.Get("Accept")) {
		// text/plain: the same human table cdrreport -top renders.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := cost.WriteTable(w, reports); err != nil {
			s.reg.Counter("serve.metrics_write_errors").Inc()
		}
		return
	}
	if reports == nil {
		reports = []cost.SolveReport{}
	}
	s.writeJSON(w, http.StatusOK, solvesBody{
		Count:   len(reports),
		Dropped: s.progress.Dropped(),
		Reports: reports,
	})
}

// progressBody is the /debug/progress JSON response: the in-flight
// solves (live phase/iteration/residual/ETA, watchdog state) plus the
// recent watchdog events the flight recorder retains.
type progressBody struct {
	Count    int                      `json:"count"`
	Solves   []progress.SolveProgress `json:"solves"`
	Watchdog []obs.Event              `json:"watchdog"`
}

// handleProgress serves the live in-flight solve table. Accept:
// text/plain renders the aligned human table (same negotiation as
// /debug/solves); everything else gets JSON with the watchdog event
// tail (bounded by ?limit=) attached.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	solves := s.progress.Snapshot()
	if acceptsPrometheus(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := progress.WriteTable(w, solves); err != nil {
			s.reg.Counter("serve.metrics_write_errors").Inc()
		}
		return
	}
	if solves == nil {
		solves = []progress.SolveProgress{}
	}
	wd := s.flight.TailWhere(queryLimit(r, solvesLimitDefault, solvesLimitMax),
		func(e *obs.Event) bool { return e.Kind == "watchdog" })
	if wd == nil {
		wd = []obs.Event{}
	}
	s.writeJSON(w, http.StatusOK, progressBody{
		Count:    len(solves),
		Solves:   solves,
		Watchdog: wd,
	})
}

// healthBody is the /healthz response. Version and revision come from
// the binary's build info, so health checks attribute a running daemon
// to a commit.
type healthBody struct {
	Status       string  `json:"status"`
	Version      string  `json:"version"`
	Revision     string  `json:"vcs_revision,omitempty"`
	StartTime    string  `json:"start_time"`
	UptimeSecs   float64 `json:"uptime_seconds"`
	CacheEntries int     `json:"cache_entries"`
	QueueLength  int     `json:"queue_length"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	bi := buildinfo.Get()
	s.writeJSON(w, http.StatusOK, healthBody{
		Status:       "ok",
		Version:      bi.Version,
		Revision:     bi.Revision,
		StartTime:    buildinfo.StartTime().UTC().Format(time.RFC3339),
		UptimeSecs:   buildinfo.Uptime().Seconds(),
		CacheEntries: s.engine.CacheLen(),
		QueueLength:  len(s.jobs.queue),
	})
}

// handleMetrics negotiates the exposition format on the Accept header:
// Prometheus text exposition for scrapers asking for text/plain (the
// standard scrape Accept is "text/plain; version=0.0.4") or
// OpenMetrics, and otherwise the registry's JSON snapshot —
// byte-identical to Registry.SnapshotJSON, which tests pin, so existing
// JSON consumers see exactly the bytes they always did.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if acceptsPrometheus(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.reg.Snapshot().WritePrometheus(w); err != nil {
			s.reg.Counter("serve.metrics_write_errors").Inc()
		}
		return
	}
	b, err := s.reg.SnapshotJSON()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// acceptsPrometheus reports whether the Accept header asks for the
// Prometheus text exposition. An explicit application/json wish wins
// even when text/plain also appears, keeping curl-with-defaults and all
// pre-existing JSON clients on the stable JSON snapshot.
func acceptsPrometheus(accept string) bool {
	if strings.Contains(accept, "application/json") {
		return false
	}
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}
