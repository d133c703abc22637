// Package multigrid implements the multi-level aggregation solver for
// stationary distributions of large Markov chains, in the style of
// Horton & Leutenegger (the method the paper employs): a hierarchy of
// recursively lumped chains, iterate-weighted aggregation and
// disaggregation between levels, relaxed Gauss–Seidel smoothing
// interleaved with the lumping and expanding steps, and an exact direct
// solve (subtraction-free GTH) at the coarsest level.
//
// The coarsening strategy is supplied by the caller as a chain of
// partitions; for the CDR model, each partition lumps pairs of consecutive
// discretized phase-error values within every (data state, filter state)
// segment, so coarse problems "resemble the original problem but with
// coarser phase error discretization".
//
// The finest level is either an explicit CSR matrix (New) or a Kronecker
// descriptor that is never materialized (NewKron), which smooths and
// restricts segment by segment through its phase factors; every coarser
// level is explicit, and both backends share one solver, cycle, smoother
// and coarsest solve.
package multigrid

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"cdrstoch/internal/faults"
	"cdrstoch/internal/lump"
	"cdrstoch/internal/obs"
	"cdrstoch/internal/obs/cost"
	"cdrstoch/internal/spmat"
)

// CycleKind selects the recursion pattern between levels.
type CycleKind int

// Supported cycle kinds.
const (
	// VCycle visits each coarse level once per cycle.
	VCycle CycleKind = iota
	// WCycle enters each coarse level twice from its parent, trading work
	// for stronger coarse-grid correction. With Config.PairLevels = k > 0
	// only levels 0..k−1 recurse twice, so level j is visited 2^min(j,k)
	// times per cycle; the zero value is the classic W-cycle, 2^j visits.
	WCycle
)

// Config tunes the multilevel solver.
type Config struct {
	// PreSmooth is the number of relaxed Gauss–Seidel sweeps before
	// descending to the coarse level. Default 1.
	PreSmooth int
	// PostSmooth is the number of sweeps after the coarse-grid correction.
	// Default 1.
	PostSmooth int
	// Damping is the smoother's relaxation factor ω (Gauss–Seidel when 1,
	// under-relaxed below 1). Default 0.9, robust on nearly periodic
	// chains.
	Damping float64
	// Tol is the convergence threshold on ‖xP − x‖₁. Default 1e-12.
	Tol float64
	// MaxCycles bounds the number of multilevel cycles. Default 200.
	MaxCycles int
	// Cycle selects V- or W-cycles. Default VCycle. A classic W-cycle
	// visits level j 2^j times per cycle, so on a deep hierarchy the
	// coarse tail dominates the cycle's cost.
	Cycle CycleKind
	// PairLevels confines a W-cycle's double coarse visits to the first
	// PairLevels partitions of the chain — the phase-pair levels
	// BuildPairHierarchy returns, ahead of any model-specific levels
	// appended below them. Levels from PairLevels down recurse once, so a
	// W-cycle visits level j 2^min(j,PairLevels) times. Zero (the default)
	// keeps the classic W-cycle on every level; VCycle ignores it. It
	// counts partitions of the full chain passed to New or NewKron: on a
	// NewKron solver, whose implicit level 0 folds the leading partitions
	// and enters level 1 by its own rule, an explicit level doubles when
	// the partition below it is among the first PairLevels.
	PairLevels int
	// CoarsestMaxIter bounds the fallback iterative solve when the direct
	// coarsest solve fails (e.g. the weighted coarse chain is reducible).
	// Default 500.
	CoarsestMaxIter int
	// Trace receives a span around the solve, one "iter" event per cycle
	// with the fine-level residual, and one "level" event per level visit
	// (smoothing or coarsest solve) within each cycle. Nil disables
	// tracing at zero cost.
	Trace obs.Tracer
	// Ctx, when non-nil, is checked at every cycle boundary: a canceled or
	// expired context stops the solve within one cycle and Solve returns a
	// partial-progress error wrapping ctx.Err(). Nil never cancels.
	Ctx context.Context
	// Workers is the width of the parallel team used for the sparse
	// products the cycle performs (the per-cycle residual on the finest
	// level). 0 selects runtime.GOMAXPROCS, 1 forces serial; matrices
	// below spmat.ParallelCutoff run serially regardless. The smoothing
	// sweeps are Gauss–Seidel and therefore inherently sequential; they
	// are not parallelized. Ignored when Pool is set.
	Workers int
	// Pool, when non-nil, supplies an externally owned worker team (the
	// service path shares pooled teams across requests so concurrent
	// solves do not oversubscribe the machine). The solver never closes
	// a caller-supplied pool.
	Pool *spmat.Pool
	// Faults arms the multigrid.cycle injection point, hit at every cycle
	// boundary alongside the Ctx check. Nil (the default) disables
	// injection at the cost of one branch per cycle.
	Faults *faults.Injector
	// Refreshable prepares the solver for in-place value refreshes of the
	// finest matrix (RefreshFine): level 0 keeps a solver-owned transpose
	// with a refresh permutation instead of sharing the matrix's lazily
	// cached one, and the per-cycle residual gathers over that owned
	// transpose. A one-shot solver leaves this false and shares the cache.
	// NewKron ignores it: an implicit level has no values to refresh.
	Refreshable bool
}

func (c Config) withDefaults() Config {
	// Stamp the request's trace identity (when Ctx carries one) onto every
	// span, iter, and level event the cycle emits.
	c.Trace = obs.StampFromContext(c.Ctx, c.Trace)
	if c.PreSmooth <= 0 {
		c.PreSmooth = 1
	}
	if c.PostSmooth <= 0 {
		c.PostSmooth = 1
	}
	if c.Damping <= 0 || c.Damping > 1 {
		c.Damping = 0.9
	}
	if c.Tol <= 0 {
		c.Tol = 1e-12
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 200
	}
	if c.CoarsestMaxIter <= 0 {
		c.CoarsestMaxIter = 500
	}
	return c
}

// ColdDefaults applies the cold-start schedule shared by the model-level
// solves: a configuration with zero Cycle, PreSmooth and PostSmooth
// becomes W(2,2) cycles whose double coarse visits stop at the phase-pair
// levels BuildPairHierarchy(segLen, _, minSegLen) would build. Below them
// (in the CDR model, the counter merges that keep the coarsest problem
// small) the cycle recurses once: doubling there multiplies the coarse
// work without improving convergence. When segLen is already at most
// minSegLen there are no pair levels and that schedule is a V(2,2) cycle,
// which is what is returned (PairLevels = 0 would mean the classic
// W-cycle). An explicit cycle configuration is returned unchanged, so
// callers that choose their own W-cycle keep the classic one.
func ColdDefaults(c Config, segLen, minSegLen int) Config {
	if c.Cycle != VCycle || c.PreSmooth != 0 || c.PostSmooth != 0 {
		return c
	}
	c.PreSmooth, c.PostSmooth = 2, 2
	if k, _ := PairLevelCount(segLen, minSegLen); k > 0 {
		c.Cycle, c.PairLevels = WCycle, k
	}
	return c
}

// PairLevelCount returns how many phase-pair levels BuildPairHierarchy
// builds for segments of segLen entries, and the segment length left
// below the last of them. minSegLen below 1 counts as 1.
func PairLevelCount(segLen, minSegLen int) (levels, coarseSegLen int) {
	minSegLen = max(minSegLen, 1)
	for ; segLen > minSegLen; segLen = (segLen + 1) / 2 {
		levels++
	}
	return levels, segLen
}

// Result reports a multilevel solve.
type Result struct {
	// Pi is the computed stationary distribution.
	Pi []float64
	// Cycles is the number of multilevel cycles performed.
	Cycles int
	// Residual is the final ‖πP − π‖₁.
	Residual float64
	// Converged reports whether Residual ≤ Tol.
	Converged bool
	// LevelSizes lists the state-space size of every level, finest first.
	LevelSizes []int
	// ResidualHistory records the residual after each cycle.
	ResidualHistory []float64
	// LevelStats attributes the solve's work per level, finest first:
	// visit counts across all cycles and wall time inside the level's
	// smoother (or coarsest direct solve).
	LevelStats []LevelStat
}

// LevelStat is the per-level work record of one solve.
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

func (r Result) String() string {
	return fmt.Sprintf("cycles=%d residual=%.3e converged=%v levels=%v",
		r.Cycles, r.Residual, r.Converged, r.LevelSizes)
}

// mgLevel is the per-level workspace of the hierarchy: the level's matrix,
// its transpose (refreshed in place on coarse levels, whose values change
// every cycle), the restriction down to the next level, and the coarse
// iterate buffer. Everything is allocated at construction so the cycles
// run allocation-free. A NewKron solver's level 0 has no matrix: imp
// smooths, restricts and prolongs through the Kronecker descriptor.
type mgLevel struct {
	size  int             // state count
	p     *spmat.CSR      // level matrix; level 0 is the caller's, others are plan-owned
	pt    *spmat.CSR      // transpose of p, used by the Gauss–Seidel smoother
	perm  []int32         // p→pt value permutation for in-place refresh; nil for a shared transpose
	part  *lump.Partition // restriction onto the next level; nil at the coarsest and on imp
	chain int             // index of part in the caller's partition chain
	plan  *lump.Plan      // lumping onto the next level; nil at the coarsest and on imp
	xc    []float64       // coarse iterate buffer; nil at the coarsest
	imp   *implicitLevel  // descriptor-backed level 0 (NewKron); nil on explicit levels
}

// Solver is a configured multilevel hierarchy for one transition chain,
// held as a CSR matrix (New) or as a Kronecker descriptor (NewKron).
type Solver struct {
	cfg      Config
	levels   []*mgLevel
	gth      spmat.GTHWorkspace
	pool     *spmat.Pool
	y        []float64 // fine product buffer for the per-cycle residual
	curCycle int       // cycle number stamped on level-visit trace events
	// fineRes is the fine residual of the previous cycle (+Inf before the
	// first); it sets how far an implicit level 0 solves level 1.
	fineRes float64

	// rawTrace is the caller's tracer before trace-identity stamping, kept
	// so SetSolveContext can restamp per-solve contexts on a reused solver.
	rawTrace obs.Tracer

	// Per-level work attribution, preallocated at construction and reset
	// per Solve so the cycles stay allocation-free.
	levelVisits []int
	levelWorkNS []int64

	// resBufs holds the product buffers of Residuals, grown on demand and
	// reused across calls.
	resBufs [][]float64
}

// New validates the partition chain against the matrix and returns a
// solver. parts[k] must partition the state space of level k (level 0 is
// p itself; level k+1 has parts[k].NumBlocks() states). An empty partition
// chain degenerates to a smoothed direct solve and is rejected for
// matrices beyond the coarsest size; supply at least one level for real
// problems.
//
// New builds the whole hierarchy structurally — coarse patterns, lumping
// plans, transposes and iterate buffers — so that Solve's cycles only
// rewrite values in place: after New, a cycle performs no heap allocation.
func New(p *spmat.CSR, parts []*lump.Partition, cfg Config) (*Solver, error) {
	n, m := p.Dims()
	if n != m {
		return nil, errors.New("multigrid: TPM must be square")
	}
	s, err := newSolver(n, parts, cfg)
	if err != nil {
		return nil, err
	}
	fine := &mgLevel{size: n, p: p}
	if s.cfg.Refreshable {
		fine.pt, fine.perm = p.TransposeWithPerm()
	} else {
		// The finest matrix's values never change; share the chain-owned
		// cached transpose.
		fine.pt = p.T()
	}
	if err := s.stack(fine, parts, 0); err != nil {
		return nil, err
	}
	return s, nil
}

// newSolver validates a partition chain over n fine states and returns a
// solver with its defaults, worker pool and fine buffer, but no levels.
func newSolver(n int, parts []*lump.Partition, cfg Config) (*Solver, error) {
	if cfg.PairLevels < 0 {
		return nil, fmt.Errorf("multigrid: negative PairLevels %d", cfg.PairLevels)
	}
	size := n
	for k, part := range parts {
		if part.NumStates() != size {
			return nil, fmt.Errorf("multigrid: partition %d covers %d states, level has %d",
				k, part.NumStates(), size)
		}
		if part.NumBlocks() >= size {
			return nil, fmt.Errorf("multigrid: partition %d does not coarsen (%d -> %d)",
				k, size, part.NumBlocks())
		}
		size = part.NumBlocks()
	}
	s := &Solver{cfg: cfg.withDefaults(), pool: cfg.Pool, rawTrace: cfg.Trace, y: make([]float64, n)}
	if s.pool == nil {
		s.pool = spmat.NewPool(cfg.Workers)
	}
	return s, nil
}

// stack appends lv and, below it, one explicit level per partition from
// parts[first] on: each level's plan lumps it onto the next, whose
// transpose is solver-owned because its values change every cycle.
func (s *Solver) stack(lv *mgLevel, parts []*lump.Partition, first int) error {
	for k := first; ; k++ {
		s.levels = append(s.levels, lv)
		if k == len(parts) {
			break
		}
		plan, err := lump.NewPlan(lv.p, parts[k])
		if err != nil {
			return fmt.Errorf("multigrid: level %d: %w", len(s.levels)-1, err)
		}
		lv.part, lv.chain, lv.plan = parts[k], k, plan
		lv.xc = make([]float64, parts[k].NumBlocks())
		lv = &mgLevel{size: parts[k].NumBlocks(), p: plan.Coarse()}
		lv.pt, lv.perm = lv.p.TransposeWithPerm()
	}
	s.levelVisits = make([]int, len(s.levels))
	s.levelWorkNS = make([]int64, len(s.levels))
	return nil
}

// LevelSizes returns the state count of every level, finest first.
func (s *Solver) LevelSizes() []int {
	sizes := make([]int, len(s.levels))
	for k, lv := range s.levels {
		sizes[k] = lv.size
	}
	return sizes
}

// normalize rescales x to unit mass (left as is when it has none).
func normalize(x []float64) {
	norm := 0.0
	for _, v := range x {
		norm += v
	}
	if norm > 0 {
		inv := 1 / norm
		for i := range x {
			x[i] *= inv
		}
	}
}

// smooth runs the level's Gauss–Seidel smoother: over the transpose's rows
// on an explicit level, segment by segment on an implicit one.
func (s *Solver) smooth(lv *mgLevel, x []float64, steps int) {
	if lv.imp != nil {
		lv.imp.smooth(s.pool, x, steps, s.cfg.Damping)
		return
	}
	s.gaussSeidel(lv.pt, x, steps)
}

// gaussSeidel performs steps relaxed Gauss–Seidel sweeps on (I − Pᵀ)x = 0,
// x_i ← (1−ω)x_i + ω·Σ_{j≠i} P_ji x_j / (1 − P_ii), keeping x normalized.
// Gauss–Seidel damps the within-aggregate (high-frequency) error far more
// effectively than power iteration, which is what the aggregation cycle
// relies on: the coarse correction fixes block masses, the smoother fixes
// the shape inside blocks. pt is Pᵀ in CSR form.
func (s *Solver) gaussSeidel(pt *spmat.CSR, x []float64, steps int) {
	omega := s.cfg.Damping
	n := len(x)
	for t := 0; t < steps; t++ {
		for i := 0; i < n; i++ {
			cols, vals := pt.Row(i)
			sum, diag := 0.0, 0.0
			for k, j := range cols {
				if j == i {
					diag = vals[k]
				} else {
					sum += vals[k] * x[j]
				}
			}
			if 1-diag < 1e-14 {
				continue // absorbing-in-isolation state: leave mass as is
			}
			gs := sum / (1 - diag)
			x[i] = (1-omega)*x[i] + omega*gs
		}
		normalize(x)
	}
}

// coarsestSolve solves the stationary distribution of a small chain
// exactly with GTH (through the reusable dense workspace), falling back to
// Gauss–Seidel sweeps when the weighted coarse chain is numerically
// reducible. The result is written into x.
func (s *Solver) coarsestSolve(lv *mgLevel, x []float64) []float64 {
	pi, err := s.gth.StationaryCSR(lv.p)
	if err == nil {
		copy(x, pi)
		return x
	}
	s.gaussSeidel(lv.pt, x, s.cfg.CoarsestMaxIter)
	return x
}

// cycle runs one multilevel cycle at the given level and returns the
// improved iterate. All buffers — coarse matrices, transposes, iterate
// vectors — live in the per-level workspaces; a cycle allocates nothing.
func (s *Solver) cycle(level int, x []float64) ([]float64, error) {
	lv := s.levels[level]
	obs.LevelEvent(s.cfg.Trace, "multigrid", s.curCycle, level, lv.size)
	s.levelVisits[level]++
	start := time.Now()
	if level == len(s.levels)-1 {
		x = s.coarsestSolve(lv, x)
		s.levelWorkNS[level] += time.Since(start).Nanoseconds()
		return x, nil
	}
	s.smooth(lv, x, s.cfg.PreSmooth)
	s.levelWorkNS[level] += time.Since(start).Nanoseconds()

	// Restrict (rewriting the next level's values), correct, prolong.
	next := s.levels[level+1]
	if im := lv.imp; im != nil {
		im.restrict(x, next.p, lv.xc)
		next.p.RefreshTranspose(next.pt, next.perm)
		if err := s.solveCoarse(im, lv.xc); err != nil {
			return nil, err
		}
		im.prolong(x, lv.xc)
	} else {
		if err := lv.plan.Update(x); err != nil {
			return nil, fmt.Errorf("multigrid: level %d: %w", level, err)
		}
		next.p.RefreshTranspose(next.pt, next.perm)
		xc := lv.part.Restrict(lv.xc, x)
		visits := 1
		if s.cfg.Cycle == WCycle && (s.cfg.PairLevels == 0 || lv.chain < s.cfg.PairLevels) {
			visits = 2
		}
		for v := 0; v < visits; v++ {
			// cycle works in place: it returns the slice it was given.
			if _, err := s.cycle(level+1, xc); err != nil {
				return nil, err
			}
		}
		lv.part.Prolong(x, xc, lv.plan.Weights())
	}
	start = time.Now()
	s.smooth(lv, x, s.cfg.PostSmooth)
	s.levelWorkNS[level] += time.Since(start).Nanoseconds()
	return x, nil
}

// levelStats pairs per-level sizes with the visit and work tallies
// accumulated since the last reset, finest first.
func levelStats(sizes, visits []int, workNS []int64) []LevelStat {
	stats := make([]LevelStat, len(sizes))
	for k, size := range sizes {
		stats[k] = LevelStat{Level: k, Size: size, Visits: visits[k], SmoothNS: workNS[k]}
	}
	return stats
}

// levelCosts converts level stats into the cost meter's level records.
func levelCosts(stats []LevelStat) []cost.LevelCost {
	lc := make([]cost.LevelCost, len(stats))
	for i, st := range stats {
		lc[i] = cost.LevelCost{Level: st.Level, Size: st.Size, Visits: st.Visits, SmoothNS: st.SmoothNS}
	}
	return lc
}

// workspaceBytes estimates the hierarchy's heap footprint beyond the
// caller's finest matrix or descriptor: coarse matrices, transposes,
// iterate buffers and the implicit level's vectors.
func (s *Solver) workspaceBytes() int64 {
	b := int64(len(s.y)) * 8
	for k, lv := range s.levels {
		if k > 0 {
			b += lv.p.MemoryBytes()
		}
		if lv.imp != nil {
			b += lv.imp.workspaceBytes()
		} else {
			b += lv.pt.MemoryBytes()
		}
		b += int64(len(lv.perm))*4 + int64(len(lv.xc))*8
	}
	return b
}

// Solve runs multilevel cycles from x0 (uniform when nil) until the
// residual criterion is met or MaxCycles is exhausted.
func (s *Solver) Solve(x0 []float64) (Result, error) {
	n := s.levels[0].size
	x := make([]float64, n)
	if x0 == nil {
		for i := range x {
			x[i] = 1 / float64(n)
		}
	} else {
		if len(x0) != n {
			return Result{}, fmt.Errorf("multigrid: x0 length %d, want %d", len(x0), n)
		}
		copy(x, x0)
		sum := 0.0
		for _, v := range x {
			if v < 0 {
				return Result{}, errors.New("multigrid: negative initial mass")
			}
			sum += v
		}
		if sum <= 0 {
			return Result{}, errors.New("multigrid: zero initial mass")
		}
		for i := range x {
			x[i] /= sum
		}
	}

	res := Result{
		LevelSizes:      s.LevelSizes(),
		ResidualHistory: make([]float64, 0, s.cfg.MaxCycles),
	}
	var err error
	endSpan := obs.StartSpan(s.cfg.Trace, "multigrid")
	defer endSpan()
	// Cost accounting: one meter lookup per solve, never per cycle. The
	// deferred attribution also covers the error returns, so a canceled
	// or faulted solve still reports the work it did.
	clear(s.levelVisits)
	clear(s.levelWorkNS)
	meter := cost.FromContext(s.cfg.Ctx)
	if meter != nil {
		stats0 := s.pool.Stats()
		meter.SampleGoroutines()
		defer func() {
			meter.AddCycles(int64(res.Cycles))
			meter.AddPoolDelta(stats0, s.pool.Stats())
			meter.AddWorkspaceBytes(s.workspaceBytes())
			meter.SetLevels(levelCosts(levelStats(res.LevelSizes, s.levelVisits, s.levelWorkNS)))
			meter.SampleGoroutines()
		}()
	}
	s.fineRes = math.Inf(1)
	for c := 1; c <= s.cfg.MaxCycles; c++ {
		if s.cfg.Ctx != nil {
			if cerr := s.cfg.Ctx.Err(); cerr != nil {
				return Result{}, fmt.Errorf("multigrid: solve stopped after %d of %d cycles (residual %.3e): %w",
					res.Cycles, s.cfg.MaxCycles, res.Residual, cerr)
			}
		}
		if ferr := s.cfg.Faults.FireCtx(s.cfg.Ctx, "multigrid.cycle"); ferr != nil {
			return Result{}, fmt.Errorf("multigrid: solve stopped after %d of %d cycles (residual %.3e): %w",
				res.Cycles, s.cfg.MaxCycles, res.Residual, ferr)
		}
		s.curCycle = c
		x, err = s.cycle(0, x)
		if err != nil {
			return Result{}, err
		}
		s.fineProduct(s.y, x)
		r := 0.0
		for i := range x {
			r += math.Abs(s.y[i] - x[i])
		}
		s.fineRes = r
		res.Cycles = c
		res.Residual = r
		res.ResidualHistory = append(res.ResidualHistory, r)
		obs.IterEvent(s.cfg.Trace, "multigrid", c, r)
		meter.AddResidual(r)
		if r <= s.cfg.Tol {
			res.Converged = true
			break
		}
	}
	res.Pi = x
	res.LevelStats = levelStats(res.LevelSizes, s.levelVisits, s.levelWorkNS)
	return res, nil
}

// RefreshFine rewrites the finest level's values in place from src, which
// must have the identical sparsity pattern (the sweep engine checks with
// spmat.SamePattern before calling; this only validates dimensions). The
// level-0 transpose is refreshed through its permutation; coarse levels
// need nothing — their values are recomputed from the fine iterate every
// cycle anyway. Requires Config.Refreshable.
func (s *Solver) RefreshFine(src *spmat.CSR) error {
	if !s.cfg.Refreshable {
		return errors.New("multigrid: RefreshFine on a non-refreshable solver")
	}
	lv := s.levels[0]
	dst := lv.p.RawValues()
	vals := src.RawValues()
	if len(vals) != len(dst) {
		return fmt.Errorf("multigrid: RefreshFine value count %d, want %d", len(vals), len(dst))
	}
	copy(dst, vals)
	lv.p.RefreshTranspose(lv.pt, lv.perm)
	return nil
}

// fineProduct sets y = x·P on the finest level: a gather over the level-0
// transpose (the matrix's shared cache, or in refreshable mode the
// solver-owned, value-current copy), or one shuffle product on an
// implicit level.
func (s *Solver) fineProduct(y, x []float64) {
	lv := s.levels[0]
	if lv.imp != nil {
		lv.imp.mul(s.pool, y, x)
		return
	}
	s.pool.VecMulT(lv.p, lv.pt, y, x)
}

// SetCycle switches the recursion pattern for subsequent Solve calls. The
// hierarchy is cycle-kind independent, so flipping between the robust
// W-cycle (cold starts) and the cheaper V-cycle (warm-started continuation
// points) on a reused solver is safe at any quiescent point.
func (s *Solver) SetCycle(k CycleKind) { s.cfg.Cycle = k }

// SetSolveContext rebinds the context consulted at every cycle boundary —
// cancellation, cost metering, fault injection — and restamps the trace
// identity, so one long-lived solver can serve a sequence of per-request
// solves. Call between Solves, never during one.
func (s *Solver) SetSolveContext(ctx context.Context) {
	s.cfg.Ctx = ctx
	s.cfg.Trace = obs.StampFromContext(ctx, s.rawTrace)
}

// Residuals evaluates ‖xP − x‖₁ for several candidate vectors in one
// blocked traversal of the fine matrix (Pool.MulVecs over the level-0
// transpose) — the sweep engine's seed selection: score the previous
// point's solution, an extrapolation, and the uniform vector together,
// then warm-start from the best. Candidates must be normalized
// distributions of the fine dimension; the solver must be explicit (New).
func (s *Solver) Residuals(xs [][]float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	for len(s.resBufs) < len(xs) {
		s.resBufs = append(s.resBufs, make([]float64, len(s.y)))
	}
	ys := s.resBufs[:len(xs)]
	s.pool.MulVecs(s.levels[0].pt, ys, xs)
	out := make([]float64, len(xs))
	for b := range xs {
		r := 0.0
		for i := range xs[b] {
			r += math.Abs(ys[b][i] - xs[b][i])
		}
		out[b] = r
	}
	return out
}

// BuildPairHierarchy constructs the partition chain for a state space laid
// out as `segments` contiguous segments of `segLen` entries each (in the
// CDR model: one segment per (data, filter) state pair, phase index
// fastest). Each level pairs consecutive entries within every segment
// until the segment length drops to at most minSegLen. It returns the
// partitions, finest first.
func BuildPairHierarchy(segLen, segments, minSegLen int) ([]*lump.Partition, error) {
	if segLen <= 0 || segments <= 0 {
		return nil, fmt.Errorf("multigrid: bad layout %dx%d", segLen, segments)
	}
	levels, _ := PairLevelCount(segLen, minSegLen)
	parts := make([]*lump.Partition, 0, levels)
	for cur := segLen; len(parts) < levels; cur = (cur + 1) / 2 {
		part, err := lump.PairsWithinSegments(cur, segments)
		if err != nil {
			return nil, err
		}
		parts = append(parts, part)
	}
	return parts, nil
}
