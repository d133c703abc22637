// Package sweep is the batched sweep engine: a Session amortizes
// everything shared across a parameter sweep of the CDR model. Neighboring
// sweep points differ only smoothly, which the point-at-a-time path
// (core.Model.Solve) cannot exploit — it rebuilds the lumping plans,
// transposes, and multigrid hierarchy from scratch and solves every point
// from the uniform vector with robust W-cycles.
//
// A Session instead keeps three things alive between points:
//
//  1. Symbolic setup. The multigrid hierarchy — partition chain, lump
//     plans, coarse patterns, transposes, iterate buffers — is built once.
//     When the next spec's TPM has the identical CSR pattern, the solver
//     adopts it as its finest matrix and refreshes only its own level-0
//     transpose (Solver.RefreshFine through the stored transpose
//     permutation); an earlier point's matrix is never written. The coarse
//     levels re-lump by value anyway on every cycle, so they need no
//     attention. A pattern or dimension change falls back to a full
//     rebuild.
//
//  2. Warm-start continuation. Each point's solve can start from its
//     neighbor's converged vector. The Session scores its candidate
//     seeds — the previous solution, linear and quadratic extrapolations
//     through the previous two or three, and the uniform vector — in one
//     blocked SpMM traversal (Solver.Residuals over Pool.MulVecs) and
//     starts from the best.
//
//  3. Cycle-kind continuation. A cold W-cycle enters each phase-pair
//     level twice from its parent, so phase-pair level k is visited 2^k
//     times and costs about as much as the finest per cycle, and the
//     counter-merge levels below inherit the deepest pair level's count —
//     the right robustness for a cold start, ~len(pair levels)× overkill
//     within a few grid steps of the answer. Warm-started points therefore
//     run cheap V-cycles; if one fails to converge the Session
//     transparently re-runs the point cold with the configured W-cycles,
//     so accuracy is never traded: every returned point satisfies the same
//     residual tolerance.
package sweep

import (
	"context"
	"fmt"
	"time"

	"cdrstoch/internal/core"
	"cdrstoch/internal/multigrid"
	"cdrstoch/internal/obs"
	"cdrstoch/internal/spmat"
)

// Options configures a Session.
type Options struct {
	// Solve carries the cold-start solver configuration (defaults match
	// core.SolveOptions: W-cycles, 2+2 smoothing, 1e−12) and MinSegLen.
	// Solve.Multigrid.Pool / Workers select the worker team; Ctx and any
	// cost Meter are taken per point from the context given to Solve.
	Solve core.SolveOptions
	// NoWarmStart disables seed selection and cycle-kind continuation:
	// every point solves cold with the configured cycle kind. Setup reuse
	// (symbolic refresh) still applies. For tests and baselines.
	NoWarmStart bool
}

// Point is one solved sweep point.
type Point struct {
	// Model is the point's freshly assembled model (measures like BER,
	// SlipStats, and marginals hang off it).
	Model *core.Model
	// Analysis bundles the stationary solution and solver statistics,
	// exactly as core.Model.Solve would return.
	Analysis *core.Analysis
	// ReusedSetup is true when the point refreshed values into the
	// previous hierarchy instead of rebuilding it.
	ReusedSetup bool
	// WarmStarted is true when the solve started from a neighbor-derived
	// seed rather than the uniform vector.
	WarmStarted bool
	// SeedResidual is the ‖xP − x‖₁ of the chosen initial iterate (1 − the
	// quality of the continuation guess; the uniform vector on cold
	// points).
	SeedResidual float64
	// Continuation is true when the point ran the cheap V-cycle
	// continuation; Fallback is true when that failed to converge and the
	// point was transparently re-solved cold.
	Continuation bool
	Fallback     bool
}

// Stats are cumulative Session counters.
type Stats struct {
	// Points counts solved points; ReusedSetup and WarmStarted count how
	// many of them hit each fast path; Fallbacks counts continuation
	// solves that had to be redone cold.
	Points      int
	ReusedSetup int
	WarmStarted int
	Fallbacks   int
	// Cycles is the total multigrid cycles across all points, including
	// fallback re-solves.
	Cycles int64
}

// Session is a stateful sweep executor. Not safe for concurrent use: a
// sweep is a chain, each point seeded by the last — callers wanting
// parallelism run one Session per chain.
type Session struct {
	opt     Options
	solver  *multigrid.Solver
	fine    *spmat.CSR // the newest point's matrix, the solver's level 0; pattern reference
	prev    []float64  // last converged solution
	prev2   []float64  // the one before it
	prev3   []float64  // and the one before that
	extrap  []float64  // linear-extrapolation scratch
	extrap2 []float64  // quadratic-extrapolation scratch
	uni     []float64  // uniform-candidate scratch
	stats   Stats
}

// New returns an empty session; the first Solve builds the hierarchy.
func New(opt Options) *Session {
	return &Session{opt: opt}
}

// Stats returns the cumulative counters.
func (s *Session) Stats() Stats { return s.stats }

// coldConfig materializes the cold-start multigrid configuration for a
// model with segLen phase points per segment, with core's defaults
// applied, forced refreshable so later points can rewrite values in place.
func (s *Session) coldConfig(segLen int) (multigrid.Config, int) {
	minSeg := s.opt.Solve.MinSegLen
	if minSeg <= 0 {
		minSeg = 4
	}
	cfg := multigrid.ColdDefaults(s.opt.Solve.Multigrid, segLen, minSeg)
	cfg.Refreshable = true
	return cfg, minSeg
}

// Solve assembles and solves one sweep point, reusing the previous
// point's symbolic setup and solution where valid. ctx is consulted after
// every cycle, and its run handle (obs.Run), if any, receives the
// point's events and is charged its cycles, kernel counts and warm-start
// flag.
func (s *Session) Solve(ctx context.Context, spec core.Spec) (*Point, error) {
	m, err := core.Build(spec)
	if err != nil {
		return nil, err
	}
	pt := &Point{Model: m}
	cfg, minSeg := s.coldConfig(m.M)
	if s.solver != nil && spmat.SamePattern(s.fine, m.P) {
		if err := s.solver.RefreshFine(m.P); err != nil {
			return nil, err
		}
		s.fine = m.P
		pt.ReusedSetup = true
	} else {
		parts, err := m.Hierarchy(minSeg)
		if err != nil {
			return nil, err
		}
		solver, err := multigrid.New(m.P, parts, cfg)
		if err != nil {
			return nil, err
		}
		s.solver, s.fine = solver, m.P
	}
	n := m.NumStates()
	if s.prev != nil && len(s.prev) != n {
		// Dimension change: the continuation chain is broken.
		s.prev, s.prev2, s.prev3 = nil, nil, nil
	}

	seed, seedRes := s.chooseSeed(n)
	s.solver.SetSolveContext(ctx)
	kind := cfg.Cycle
	if seed != nil {
		// Warm start: the iterate is already near the answer, so the cheap
		// V-cycle suffices; non-convergence falls back below.
		kind = multigrid.VCycle
		pt.WarmStarted = true
		pt.Continuation = true
		if run := obs.RunFrom(ctx); run != nil && run.Meter != nil {
			run.Meter.MarkWarmStarted()
		}
	}
	pt.SeedResidual = seedRes
	s.solver.SetCycle(kind)
	start := time.Now()
	res, err := s.solver.Solve(seed)
	if err != nil {
		return nil, err
	}
	if !res.Converged && pt.Continuation {
		// The continuation gamble failed; re-solve cold with the robust
		// configured cycle kind so accuracy never degrades.
		pt.Fallback = true
		s.stats.Fallbacks++
		s.stats.Cycles += int64(res.Cycles)
		s.solver.SetCycle(cfg.Cycle)
		res, err = s.solver.Solve(nil)
		if err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)
	s.stats.Points++
	s.stats.Cycles += int64(res.Cycles)
	if pt.ReusedSetup {
		s.stats.ReusedSetup++
	}
	if pt.WarmStarted {
		s.stats.WarmStarted++
	}
	if !res.Converged {
		return nil, fmt.Errorf("sweep: multigrid %w: %v", core.ErrUnconverged, res)
	}
	s.prev3, s.prev2, s.prev = s.prev2, s.prev, res.Pi
	pt.Analysis = &core.Analysis{
		Pi:        res.Pi,
		BER:       m.BER(res.Pi),
		Multigrid: res,
		SolveTime: elapsed,
	}
	return pt, nil
}

// chooseSeed scores the candidate initial iterates — previous solution,
// linear and quadratic extrapolations through the previous two or three,
// uniform — in one blocked SpMM traversal and returns the best
// non-uniform seed, or nil when the uniform vector wins (cold start) or
// warm starts are disabled. The returned residual is the chosen
// candidate's ‖xP − x‖₁.
func (s *Session) chooseSeed(n int) ([]float64, float64) {
	if s.opt.NoWarmStart || s.prev == nil {
		return nil, 0
	}
	if s.uni == nil || len(s.uni) != n {
		s.uni = make([]float64, n)
	}
	for i := range s.uni {
		s.uni[i] = 1 / float64(n)
	}
	cands := [][]float64{s.uni, s.prev}
	if s.prev2 != nil {
		cands = append(cands, s.extrapolate(n))
	}
	if s.prev3 != nil {
		cands = append(cands, s.extrapolateQuad(n))
	}
	res := s.solver.Residuals(cands)
	best := 0
	for b := 1; b < len(res); b++ {
		if res[b] < res[best] {
			best = b
		}
	}
	if best == 0 {
		return nil, res[0]
	}
	return cands[best], res[best]
}

// extrapolate fills the scratch buffer with the normalized, clamped
// linear continuation 2·prev − prev2 — first-order in the sweep step, so
// its residual is typically orders of magnitude below the previous
// solution's.
func (s *Session) extrapolate(n int) []float64 {
	if s.extrap == nil || len(s.extrap) != n {
		s.extrap = make([]float64, n)
	}
	sum := 0.0
	for i := range s.extrap {
		v := 2*s.prev[i] - s.prev2[i]
		if v < 0 {
			v = 0
		}
		s.extrap[i] = v
		sum += v
	}
	if sum <= 0 {
		copy(s.extrap, s.prev)
		return s.extrap
	}
	inv := 1 / sum
	for i := range s.extrap {
		s.extrap[i] *= inv
	}
	return s.extrap
}

// extrapolateQuad fills the scratch buffer with the normalized, clamped
// quadratic continuation 3·prev − 3·prev2 + prev3 (Newton forward
// difference through three equally spaced points) — second-order in the
// sweep step. On a smooth axis its residual sits a further one to two
// orders below the linear extrapolation's, which the residual scoring
// confirms or rejects per point.
func (s *Session) extrapolateQuad(n int) []float64 {
	if s.extrap2 == nil || len(s.extrap2) != n {
		s.extrap2 = make([]float64, n)
	}
	sum := 0.0
	for i := range s.extrap2 {
		v := 3*s.prev[i] - 3*s.prev2[i] + s.prev3[i]
		if v < 0 {
			v = 0
		}
		s.extrap2[i] = v
		sum += v
	}
	if sum <= 0 {
		copy(s.extrap2, s.prev)
		return s.extrap2
	}
	inv := 1 / sum
	for i := range s.extrap2 {
		s.extrap2[i] *= inv
	}
	return s.extrap2
}
