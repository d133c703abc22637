package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"cdrstoch/internal/core"
	"cdrstoch/internal/dist"
	"cdrstoch/internal/faults"
	"cdrstoch/internal/multigrid"
	"cdrstoch/internal/obs"
	"cdrstoch/internal/obs/cost"
	"cdrstoch/internal/obs/progress"
	"cdrstoch/internal/passage"
	"cdrstoch/internal/serve/speckey"
	"cdrstoch/internal/spmat"
	"cdrstoch/internal/sweep"
)

// ErrBadRequest marks client errors (invalid specs, unknown sweep
// parameters); the HTTP layer maps it to 400 instead of 500.
var ErrBadRequest = errors.New("bad request")

func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}

// EngineConfig parameterizes an Engine.
type EngineConfig struct {
	// CacheEntries bounds the result cache. Default 256.
	CacheEntries int
	// MaxConcurrent bounds the number of simultaneous solves across all
	// requests (sweep fan-out included). Default 4.
	MaxConcurrent int
	// SolveWorkers is the parallel team width each solve uses for its
	// sparse kernels. The default divides the machine among the solve
	// slots — max(1, GOMAXPROCS/MaxConcurrent) — so a saturated solve
	// semaphore does not oversubscribe the cores. Set 1 to force serial
	// solves.
	SolveWorkers int
	// Multigrid overrides the stationary solver configuration; its Ctx and
	// Pool fields are overwritten per request. The zero value selects
	// core.SolveOptions' robust defaults.
	Multigrid multigrid.Config
	// Registry receives the serve.* metrics. May be nil (no-op).
	Registry *obs.Registry
	// Tracer receives solver events (multigrid spans, per-cycle
	// residuals) for every cache-miss solve. Cache hits emit nothing —
	// that silence is the observable proof a response came from the cache.
	Tracer obs.Tracer
	// Faults arms the engine's injection points (engine.solve, cache.put,
	// cache.evict, singleflight.leader) and is every solve's run fault
	// hook (multigrid.cycle). Nil (the default) disables injection at
	// zero cost.
	Faults *faults.Injector
	// Progress is the per-solve table every cache-miss solve reports to:
	// while it runs, its run events feed a live row (phase, iteration,
	// residual, ETA) that the watchdog classifies and /debug/progress
	// serves; when it ends, its SolveReport closes the row into the
	// finished tail behind /debug/solves and the X-Solve-Cost-* headers.
	// Nil (the default) disables the table at zero cost; the per-endpoint
	// cost histograms still reach Registry.
	Progress *progress.Tracker
	// CostLog optionally mirrors every SolveReport to a JSONL sink for
	// offline analysis; the server exports its drop count as
	// cost.log_dropped. Nil disables the sink.
	CostLog *obs.JSONL
}

// Engine maps specs to immutable response bodies: content-addressed cache
// in front, singleflight dedup and a solve-concurrency semaphore behind.
// All methods are safe for concurrent use.
type Engine struct {
	cfg EngineConfig
	reg *obs.Registry

	mu    sync.Mutex // guards cache
	cache *Cache

	sf  group
	sem chan struct{}

	// teams recycles sparse-kernel worker pools across requests: at most
	// MaxConcurrent are live at once (one per solve slot), each of width
	// SolveWorkers, so concurrent solves share the machine instead of
	// each spawning a full-width team. Pools dropped under memory
	// pressure release their goroutines via finalizer.
	teams sync.Pool
}

// NewEngine returns a ready Engine.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 256
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.SolveWorkers <= 0 {
		w := runtime.GOMAXPROCS(0) / cfg.MaxConcurrent
		if w < 1 {
			w = 1
		}
		cfg.SolveWorkers = w
	}
	e := &Engine{
		cfg:   cfg,
		reg:   cfg.Registry,
		cache: NewCache(cfg.CacheEntries, cfg.Registry),
		sem:   make(chan struct{}, cfg.MaxConcurrent),
	}
	e.cache.faults = cfg.Faults
	e.sf.faults = cfg.Faults
	e.teams.New = func() any { return spmat.NewPool(cfg.SolveWorkers) }
	return e
}

// fptr boxes a float for JSON, mapping non-finite values to null (JSON
// has no Inf/NaN; an infinite mean time between slips means "no slips
// observed at stationarity").
func fptr(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

// SlipBody is the slip-statistics section shared by responses.
type SlipBody struct {
	// Flux is the stationary entry probability per bit into the slip set.
	Flux float64 `json:"flux"`
	// OutsideMass and TargetMass split the stationary mass around the set.
	OutsideMass float64 `json:"outside_mass"`
	TargetMass  float64 `json:"target_mass"`
	// MeanTimeBetween is the conditional renewal estimate in bit periods;
	// null when no slip flux exists.
	MeanTimeBetween *float64 `json:"mean_time_between_bits"`
	// WrapRate and WrapMeanTimeBetween report the exact boundary-crossing
	// slip measure of WrapPhase models; omitted otherwise.
	WrapRate            *float64 `json:"wrap_rate,omitempty"`
	WrapMeanTimeBetween *float64 `json:"wrap_mean_time_between_bits,omitempty"`
}

// AnalyzeBody is the response body of /v1/analyze (and of each sweep
// point). Bodies are cached as bytes, so identical specs always yield
// byte-identical responses. A body holds no wall-clock field, so a spec
// whose entry was evicted solves again to the same bytes; a miss's wall
// time rides the X-Solve-Cost-Wall-Ms header and /debug/solves instead.
type AnalyzeBody struct {
	SpecKey   string   `json:"spec_key"`
	States    int      `json:"states"`
	BER       float64  `json:"ber"`
	Converged bool     `json:"converged"`
	Cycles    int      `json:"cycles"`
	Residual  float64  `json:"residual"`
	Slip      SlipBody `json:"slip"`
}

// cacheGet consults the cache under the engine lock.
func (e *Engine) cacheGet(key string) ([]byte, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cache.get(key)
}

// cachePut stores a finished body under the engine lock.
func (e *Engine) cachePut(key string, body []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cache.put(key, body)
}

// acquire takes a solve slot, honoring ctx while queueing.
func (e *Engine) acquire(ctx context.Context) error {
	select {
	case e.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: queued for a solve slot: %w", ctx.Err())
	}
}

func (e *Engine) release() { <-e.sem }

// cached wraps the cache + singleflight + solve pipeline shared by all
// endpoints. compute must be a pure function of the key. The flight runs
// under the initiating request's context; a waiter whose own context is
// still live retries when the leader's context dies — whether the leader
// was canceled or ran out its own (possibly tighter) deadline — becoming
// the new leader, so one impatient or short-deadlined client cannot
// poison the result for others. A follower never surfaces the dead
// leader's ctx.Err() as its own result.
func (e *Engine) cached(ctx context.Context, key string, compute func(context.Context) ([]byte, error)) ([]byte, bool, error) {
	if body, ok := e.cacheGet(key); ok {
		return body, true, nil
	}
	for {
		body, shared, err := e.sf.do(key, func() ([]byte, error) {
			// Double-check under singleflight: another flight may have
			// completed between the miss above and this call.
			if body, ok := e.cacheGet(key); ok {
				return body, nil
			}
			body, err := compute(ctx)
			if err != nil {
				return nil, err
			}
			e.cachePut(key, body)
			return body, nil
		})
		if shared {
			e.reg.Counter("serve.singleflight_shared").Inc()
			leaderCtxDied := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
			if err != nil && leaderCtxDied && ctx.Err() == nil {
				continue // the leader's context died, ours did not: retry as leader
			}
		}
		return body, shared && err == nil, err
	}
}

// validate hashes and validates a spec, mapping both failure modes to
// ErrBadRequest.
func validate(spec core.Spec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", badRequestf("invalid spec: %v", err)
	}
	h, err := speckey.Hash(spec)
	if err != nil {
		return "", badRequestf("unhashable spec: %v", err)
	}
	return h, nil
}

// ms converts a duration to fractional milliseconds for histogram
// observations.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// shortKey returns the spec-key prefix used in error messages and pprof
// labels (bounded cardinality for profile label indexes).
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// solve runs one cache-miss solve under its own run handle: it takes a
// solve slot, opens the solve's row in the progress table, and runs body
// with a context carrying the run — the engine's event sink tee'd with
// the row's handle, meter, and the fault hook. Everything body does,
// refinements included, thus runs inside the slot and is watched,
// metered and canceled (with the request) as one solve. body returns the
// model it built (nil if it failed before), for the cost report that
// closes the row when the solve ends.
func (e *Engine) solve(ctx context.Context, endpoint, key string,
	body func(ctx context.Context, run *obs.Run) (*core.Model, []byte, error)) (out []byte, err error) {
	meter := cost.NewMeter()
	var m *core.Model
	var h *progress.Handle
	defer func() { e.finish(ctx, h, meter, endpoint, key, m, err) }()
	if err := e.acquire(ctx); err != nil {
		return nil, err
	}
	defer e.release()
	run := &obs.Run{Sink: e.cfg.Tracer, Meter: meter, Fault: e.cfg.Faults.FireCtx}
	if e.cfg.Progress != nil {
		h = e.cfg.Progress.Begin(ctx, endpoint, shortKey(key))
		run.Sink = obs.Tee(e.cfg.Tracer, h)
	}
	sctx := obs.WithRun(ctx, run)
	if ferr := e.cfg.Faults.FireCtx(sctx, "engine.solve"); ferr != nil {
		return nil, fmt.Errorf("serve: solve %s: %w", shortKey(key), ferr)
	}
	defer e.reg.Timer("serve.solve").Time()()
	e.reg.Counter("serve.solves").Inc()
	m, out, err = body(sctx, run)
	return out, err
}

// Solve backends selectable in the request envelope. "kron", and the
// empty string that selects it by default, never form the product TPM and
// solve through the Kronecker descriptor; "explicit" assembles the TPM.
const (
	backendExplicit = "explicit"
	backendKron     = "kron"
)

// resolveBackend maps an envelope backend string to the backend that
// computes it, and to ErrBadRequest when it names no known solve backend.
func resolveBackend(backend string) (string, error) {
	switch backend {
	case "", backendKron:
		return backendKron, nil
	case backendExplicit:
		return backendExplicit, nil
	}
	return "", badRequestf("unknown backend %q (want %q or %q)", backend, backendKron, backendExplicit)
}

// analyzeKey is the cache key of an analyze body: it names the backend
// that computed the body, so each backend keeps its own entry.
func analyzeKey(backend, h string) string { return "analyze:" + backend + ":" + h }

// analyze builds the model and runs the stationary analysis under ctx's
// run, on the given worker team. backend selects the transition
// representation: the matrix-free Kronecker descriptor, which never
// assembles the product matrix — the build stage runs BuildShell and the
// solve stage the implicit-fine-level multigrid — or the explicit CSR
// matrix, which Build assembles and Solve W-cycles. Both stages record
// latency histograms (serve.build_ms, serve.solve_ms) and emit spans
// through the run, so per-request traces and the flight recorder see the
// engine stages alongside the solver's own events. The stages
// additionally run under pprof labels (endpoint, spec, stage), so CPU
// profiles of a busy server attribute samples to the spec being solved,
// not just to "the solver".
func (e *Engine) analyze(ctx context.Context, run *obs.Run, team *spmat.Pool, spec core.Spec, key, endpoint, backend string) (m *core.Model, a *core.Analysis, err error) {
	buildStart := time.Now()
	endBuild := run.Span("serve.build")
	pprof.Do(ctx, pprof.Labels("endpoint", endpoint, "spec", shortKey(key), "stage", "build"), func(ctx context.Context) {
		if backend == backendExplicit {
			m, err = core.Build(spec)
		} else {
			m, err = core.BuildShell(spec)
		}
	})
	endBuild()
	e.reg.Histogram("serve.build_ms").Observe(ms(time.Since(buildStart)))
	if err != nil {
		return nil, nil, fmt.Errorf("serve: build %s: %w", shortKey(key), err)
	}
	mg := e.cfg.Multigrid
	mg.Pool = team
	solveStart := time.Now()
	endSolve := run.Span("serve.solve")
	pprof.Do(ctx, pprof.Labels("endpoint", endpoint, "spec", shortKey(key), "stage", "solve"), func(ctx context.Context) {
		mg.Ctx = ctx // the labeled ctx still carries the run
		if backend == backendExplicit {
			a, err = m.Solve(core.SolveOptions{Multigrid: mg})
		} else {
			a, err = m.SolveKron(core.SolveOptions{Multigrid: mg})
		}
	})
	endSolve()
	e.reg.Histogram("serve.solve_ms").Observe(ms(time.Since(solveStart)))
	if err != nil {
		if errors.Is(err, core.ErrUnconverged) {
			e.reg.Counter("serve.unconverged").Inc()
		}
		return m, nil, fmt.Errorf("serve: solve %s: %w", shortKey(key), err)
	}
	e.reg.Counter("serve.solver_cycles").Add(int64(a.Multigrid.Cycles))
	e.reg.Histogram("serve.solve_cycles").Observe(float64(a.Multigrid.Cycles))
	return m, a, nil
}

// finish closes a solve's meter and files the report in one place: it
// closes the solve's row in the progress table (h is nil when the solve
// failed before it got a slot), folds it into the registry histograms
// and writes it to the JSONL sink. m may be nil (build failed); err
// annotates failed solves. The report's trace identity comes from the
// context the solve actually ran under, so async jobs carry their
// submitter's trace ID.
func (e *Engine) finish(ctx context.Context, h *progress.Handle, meter *cost.Meter, endpoint, key string, m *core.Model, err error) {
	rep := meter.Finish()
	rep.Endpoint = endpoint
	rep.SpecKey = key
	rep.Trace, rep.Parent = obs.TraceFromContext(ctx)
	if m != nil {
		switch {
		case m.P != nil:
			rep.States = m.NumStates()
			rep.NNZ = m.P.NNZ()
			rep.MatrixBytes = m.P.MemoryBytes()
		case m.Desc != nil:
			// Matrix-free solve: NNZ and MatrixBytes describe the factor
			// matrices actually resident — the numbers States is paid for
			// with, not what an explicit assembly would have stored.
			rep.States = m.NumStates()
			rep.NNZ = int(m.Desc.NNZ())
			rep.MatrixBytes = m.Desc.MemoryBytes()
		}
	}
	if err != nil {
		rep.Err = err.Error()
	}
	e.cfg.Progress.Finish(h, rep)
	cost.Aggregate(e.reg, rep)
	e.cfg.CostLog.Encode(rep)
}

func slipBody(m *core.Model, a *core.Analysis) (SlipBody, error) {
	flux, err := m.SlipStats(a.Pi)
	if err != nil {
		return SlipBody{}, err
	}
	out := SlipBody{
		Flux:            flux.Flux,
		OutsideMass:     flux.OutsideMass,
		TargetMass:      flux.TargetMass,
		MeanTimeBetween: fptr(flux.MeanTimeBetween),
	}
	if m.Spec.WrapPhase {
		rate, mtbs, err := m.WrapSlipRate(a.Pi)
		if err != nil {
			return SlipBody{}, err
		}
		out.WrapRate = fptr(rate)
		out.WrapMeanTimeBetween = fptr(mtbs)
	}
	return out, nil
}

// analyzeBodyJSON assembles the AnalyzeBody bytes of one solved spec.
// Both /v1/analyze and the batch sweep go through this one marshaller, so
// a batch point's cache entry has the shape a "backend":"explicit"
// /v1/analyze of the identical spec writes into the same entry (and vice
// versa).
func analyzeBodyJSON(h string, m *core.Model, a *core.Analysis) ([]byte, error) {
	slip, err := slipBody(m, a)
	if err != nil {
		return nil, err
	}
	return json.Marshal(AnalyzeBody{
		SpecKey:   h,
		States:    m.NumStates(),
		BER:       a.BER,
		Converged: a.Multigrid.Converged,
		Cycles:    a.Multigrid.Cycles,
		Residual:  a.Multigrid.Residual,
		Slip:      slip,
	})
}

// Analyze returns the stationary + BER body for spec, solved matrix-free,
// reporting whether it was served from cache.
func (e *Engine) Analyze(ctx context.Context, spec core.Spec) ([]byte, bool, error) {
	return e.AnalyzeBackend(ctx, spec, "")
}

// AnalyzeBackend is Analyze with a chosen solve backend: empty or "kron"
// solves matrix-free, "explicit" on the assembled TPM. The two backends
// produce numerically matching bodies but are cached under distinct keys
// (analyzeKey): their cycles and residual fields differ by construction,
// and keeping the entries apart means a backend comparison always
// exercises both paths instead of the second request silently hitting the
// first one's entry. The empty backend and "kron" share one.
func (e *Engine) AnalyzeBackend(ctx context.Context, spec core.Spec, backend string) ([]byte, bool, error) {
	backend, err := resolveBackend(backend)
	if err != nil {
		return nil, false, err
	}
	h, err := validate(spec)
	if err != nil {
		return nil, false, err
	}
	return e.cached(ctx, analyzeKey(backend, h), func(ctx context.Context) ([]byte, error) {
		return e.solve(ctx, "analyze", h, func(ctx context.Context, run *obs.Run) (*core.Model, []byte, error) {
			team := e.teams.Get().(*spmat.Pool)
			defer e.teams.Put(team)
			m, a, err := e.analyze(ctx, run, team, spec, h, "analyze", backend)
			if err != nil {
				return m, nil, err
			}
			body, err := analyzeBodyJSON(h, m, a)
			return m, body, err
		})
	})
}

// SlipResponse is the body of /v1/slip: the slip measures plus the
// quasi-stationary hazard of the conditioned loop.
type SlipResponse struct {
	SpecKey string   `json:"spec_key"`
	States  int      `json:"states"`
	Slip    SlipBody `json:"slip"`
	// HazardPerBit is the asymptotic slip hazard of the quasi-stationary
	// regime, the mass ν·P sends into the slip set (never negative);
	// ConditionedBER the error rate conditioned on never slipping.
	HazardPerBit   *float64 `json:"hazard_per_bit,omitempty"`
	ConditionedBER *float64 `json:"conditioned_ber,omitempty"`
}

// Slip returns the cycle-slip body for spec, solved on the explicit
// backend: the quasi-stationary refinement reads the assembled TPM.
func (e *Engine) Slip(ctx context.Context, spec core.Spec) ([]byte, bool, error) {
	h, err := validate(spec)
	if err != nil {
		return nil, false, err
	}
	return e.cached(ctx, "slip:"+h, func(ctx context.Context) ([]byte, error) {
		return e.solve(ctx, "slip", h, func(ctx context.Context, run *obs.Run) (*core.Model, []byte, error) {
			team := e.teams.Get().(*spmat.Pool)
			defer e.teams.Put(team)
			m, a, err := e.analyze(ctx, run, team, spec, h, "slip", backendExplicit)
			if err != nil {
				return m, nil, err
			}
			slip, err := slipBody(m, a)
			if err != nil {
				return m, nil, err
			}
			body := SlipResponse{SpecKey: h, States: m.NumStates(), Slip: slip}
			// The quasi-stationary refinement only exists when the slip set
			// is nonempty and reachable; degrade gracefully when it is not.
			// It runs in the solve's slot, on its team and under its run,
			// so its sweeps are watched, attributed and canceled with the
			// rest of the solve.
			if qs, qerr := m.SlipQuasiStationaryOpt(passage.QSOptions{Ctx: ctx, Pool: team}); qerr == nil {
				body.HazardPerBit = fptr(qs.HazardPerStep)
				body.ConditionedBER = fptr(m.BER(qs.Nu))
			}
			out, err := json.Marshal(body)
			return m, out, err
		})
	})
}

// SweepPoint is one member of a sweep family.
type SweepPoint struct {
	Value  float64         `json:"value"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	// Batch-mode provenance: whether the point's solve started from a
	// neighbor's solution, whether it reused the previous point's symbolic
	// setup, and the multigrid cycles it took. Absent on fan-out sweeps,
	// cache hits, and flights shared with a concurrent request.
	WarmStarted bool `json:"warm_started,omitempty"`
	ReusedSetup bool `json:"reused_setup,omitempty"`
	Cycles      int  `json:"cycles,omitempty"`
}

// SweepBody is the response body of /v1/sweep.
type SweepBody struct {
	Param string `json:"param"`
	// Batch is true when the sweep ran as a warm-started continuation
	// chain (request field "batch") instead of the parallel fan-out.
	Batch  bool         `json:"batch,omitempty"`
	Points []SweepPoint `json:"points"`
}

// maxSweepValues bounds a sweep request; larger families should be split
// by the client (each point is cached, so splitting costs nothing).
const maxSweepValues = 256

// applySweepParam derives the spec of one sweep point.
func applySweepParam(base core.Spec, param string, v float64) (core.Spec, error) {
	s := base
	switch param {
	case "counter":
		n := int(v)
		if float64(n) != v || n < 1 {
			return s, badRequestf("counter value %g is not a positive integer", v)
		}
		s.CounterLen = n
	case "stdnw":
		if v <= 0 {
			return s, badRequestf("stdnw value %g must be positive", v)
		}
		s.EyeJitter = dist.NewGaussian(0, v)
	case "density":
		s.TransitionDensity = v
	case "threshold":
		s.Threshold = v
	default:
		return s, badRequestf("unknown sweep param %q (want counter, stdnw, density or threshold)", param)
	}
	return s, nil
}

// Sweep fans a parameter family out over the engine's bounded solve pool
// and assembles the per-point analyze bodies in request order. Each point
// is a default /v1/analyze of its spec: solved matrix-free, cached under
// that entry. Individual point failures are reported in place; only
// request-level errors (bad param, empty family, canceled context) fail
// the whole sweep.
func (e *Engine) Sweep(ctx context.Context, base core.Spec, param string, values []float64) ([]byte, error) {
	if len(values) == 0 {
		return nil, badRequestf("sweep needs at least one value")
	}
	if len(values) > maxSweepValues {
		return nil, badRequestf("sweep of %d values exceeds the limit of %d", len(values), maxSweepValues)
	}
	if _, err := applySweepParam(base, param, values[0]); err != nil {
		return nil, err // reject unknown params before spawning anything
	}
	points := make([]SweepPoint, len(values))
	var wg sync.WaitGroup
	for i, v := range values {
		wg.Add(1)
		go func(i int, v float64) {
			defer wg.Done()
			points[i] = SweepPoint{Value: v}
			// The shield keeps a panicking point (injected or real) a
			// failed point, not a dead process: a goroutine panic would
			// otherwise bypass every recovery layer above us.
			err := shield(func() error {
				spec, err := applySweepParam(base, param, v)
				if err == nil {
					err = spec.Validate()
				}
				if err != nil {
					return err
				}
				body, cached, err := e.Analyze(ctx, spec)
				if err != nil {
					return err
				}
				points[i].Cached = cached
				points[i].Result = body
				return nil
			})
			if err != nil {
				points[i].Error = err.Error()
			}
		}(i, v)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("serve: sweep stopped: %w", err)
	}
	return json.Marshal(SweepBody{Param: param, Points: points})
}

// sessionSolve runs one batch sweep point through the shared Session
// under the point's run, with the same metrics, pprof labels and trace
// span as the point-at-a-time path. It runs inside Engine.solve, so the
// slot is held only for the point's own solve — never while waiting on
// another request's flight — and a batch cannot deadlock a
// MaxConcurrent=1 engine.
func (e *Engine) sessionSolve(ctx context.Context, run *obs.Run, sess *sweep.Session, spec core.Spec, key string) (pt *sweep.Point, err error) {
	solveStart := time.Now()
	endSolve := run.Span("serve.sweep_point")
	pprof.Do(ctx, pprof.Labels("endpoint", "sweep", "spec", shortKey(key), "stage", "solve"), func(ctx context.Context) {
		pt, err = sess.Solve(ctx, spec)
	})
	endSolve()
	e.reg.Histogram("serve.solve_ms").Observe(ms(time.Since(solveStart)))
	if err != nil {
		if errors.Is(err, core.ErrUnconverged) {
			e.reg.Counter("serve.unconverged").Inc()
		}
		return nil, fmt.Errorf("serve: solve %s: %w", shortKey(key), err)
	}
	e.reg.Counter("serve.solver_cycles").Add(int64(pt.Analysis.Multigrid.Cycles))
	e.reg.Histogram("serve.solve_cycles").Observe(float64(pt.Analysis.Multigrid.Cycles))
	return pt, nil
}

// SweepBatch solves a parameter family as one warm-started continuation
// chain: points run sequentially through a sweep.Session that reuses the
// symbolic setup across pattern-identical neighbors and seeds each solve
// from the previous solution. The Session solves on the explicit TPM, so
// each point gets its own cache entry under the key a "backend":"explicit"
// /v1/analyze uses — hits skip the solve (and break the seed chain
// harmlessly; seed quality is measured, not assumed) — and each miss runs
// under singleflight, so a batch and concurrent explicit analyze requests
// for the same spec share one solve. Point failures are reported in
// place, like Sweep.
func (e *Engine) SweepBatch(ctx context.Context, base core.Spec, param string, values []float64) ([]byte, error) {
	if len(values) == 0 {
		return nil, badRequestf("sweep needs at least one value")
	}
	if len(values) > maxSweepValues {
		return nil, badRequestf("sweep of %d values exceeds the limit of %d", len(values), maxSweepValues)
	}
	if _, err := applySweepParam(base, param, values[0]); err != nil {
		return nil, err
	}
	team := e.teams.Get().(*spmat.Pool)
	defer e.teams.Put(team)
	mg := e.cfg.Multigrid
	mg.Pool = team
	sess := sweep.New(sweep.Options{Solve: core.SolveOptions{Multigrid: mg}})
	points := make([]SweepPoint, len(values))
	for i, v := range values {
		points[i] = SweepPoint{Value: v}
		err := shield(func() error {
			spec, err := applySweepParam(base, param, v)
			if err == nil {
				err = spec.Validate()
			}
			if err != nil {
				return err
			}
			h, err := speckey.Hash(spec)
			if err != nil {
				return badRequestf("unhashable spec: %v", err)
			}
			var pt *sweep.Point
			body, cached, err := e.cached(ctx, analyzeKey(backendExplicit, h), func(ctx context.Context) ([]byte, error) {
				return e.solve(ctx, "sweep", h, func(ctx context.Context, run *obs.Run) (*core.Model, []byte, error) {
					p, err := e.sessionSolve(ctx, run, sess, spec, h)
					if err != nil {
						return nil, nil, err
					}
					pt = p
					body, err := analyzeBodyJSON(h, p.Model, p.Analysis)
					return p.Model, body, err
				})
			})
			if err != nil {
				return err
			}
			points[i].Cached = cached
			points[i].Result = body
			if pt != nil {
				points[i].WarmStarted = pt.WarmStarted
				points[i].ReusedSetup = pt.ReusedSetup
				points[i].Cycles = pt.Analysis.Multigrid.Cycles
			}
			return nil
		})
		if err != nil {
			points[i].Error = err.Error()
		}
		if ctx.Err() != nil {
			break
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("serve: sweep stopped: %w", err)
	}
	st := sess.Stats()
	e.reg.Counter("serve.sweep_batch_points").Add(int64(st.Points))
	e.reg.Counter("serve.sweep_warm_starts").Add(int64(st.WarmStarted))
	e.reg.Counter("serve.sweep_setup_reuses").Add(int64(st.ReusedSetup))
	return json.Marshal(SweepBody{Param: param, Batch: true, Points: points})
}

// CacheLen reports the number of cached bodies (for tests and /healthz).
func (e *Engine) CacheLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cache.len()
}
