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

	"cdrstoch/internal/lump"
	"cdrstoch/internal/obs"
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
	// coarse tail dominates the cycle's cost. NewKron ignores it: its
	// level 0 enters level 1 by the forcing rule (see NewKron), and every
	// level below recurses once.
	Cycle CycleKind
	// PairLevels confines a W-cycle's double coarse visits to the first
	// PairLevels partitions of the chain — the phase-pair levels
	// BuildPairHierarchy returns, ahead of any model-specific levels
	// appended below them. Levels from PairLevels down recurse once, so a
	// W-cycle visits level j 2^min(j,PairLevels) times. Zero (the default)
	// keeps the classic W-cycle on every level; VCycle and NewKron ignore
	// it.
	PairLevels int
	// CoarsestMaxIter bounds the fallback iterative solve when the direct
	// coarsest solve fails (e.g. the weighted coarse chain is reducible).
	// Default 500.
	CoarsestMaxIter int
	// Ctx, when non-nil, is checked after every cycle: a canceled or
	// expired context stops the solve within one cycle and Solve returns
	// a partial-progress error wrapping ctx.Err(). Its run handle
	// (obs.Run), if any, receives a span around the solve and one "iter"
	// event per cycle with the fine-level residual; the closing span_end
	// carries the solve's per-level visits and smoothing time (the
	// Result's LevelStats). The run is charged the cycles, kernel work,
	// workspace and per-level work, and fires the multigrid.cycle fault
	// point. Nil never cancels.
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
	// Refreshable prepares the solver to swap in a finest matrix of the
	// same pattern (RefreshFine): level 0 keeps a solver-owned transpose
	// with a refresh permutation instead of sharing the matrix's lazily
	// cached one, and the per-cycle residual gathers over that owned
	// transpose. A one-shot solver leaves this false and shares the cache.
	// NewKron ignores it: an implicit level has no values to refresh.
	Refreshable bool
}

func (c Config) withDefaults() Config {
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
	LevelStats []obs.LevelStat
}

func (r Result) String() string {
	return fmt.Sprintf("cycles=%d residual=%.3e converged=%v levels=%v",
		r.Cycles, r.Residual, r.Converged, r.LevelSizes)
}

// mgLevel is the per-level workspace of the hierarchy: the level's matrix,
// held as the transpose its smoother and plan read, the restriction down
// to the next level, and the coarse iterate buffer. Everything is
// allocated at construction so the cycles run allocation-free. A level
// below 0 is held once, as the transpose the level above rewrites every
// cycle. A NewKron solver's level 0 has no matrix: imp smooths, restricts
// and prolongs through the Kronecker descriptor.
type mgLevel struct {
	size  int             // state count
	p     *spmat.CSR      // the caller's matrix on level 0 of New; nil elsewhere
	pt    *spmat.CSR      // transpose: p.T(), solver-owned if Refreshable, or the level above's output
	perm  []int32         // p→pt value permutation for RefreshFine; nil unless Refreshable
	part  *lump.Partition // restriction onto the next level; nil at the coarsest and on imp
	chain int             // index of part in the caller's partition chain
	plan  *lump.Plan      // lumping onto the next level; nil at the coarsest and on imp
	xc    []float64       // coarse iterate buffer; nil at the coarsest
	imp   *implicitLevel  // descriptor-backed level 0 (NewKron); nil on explicit levels
}

// Solver is a configured multilevel hierarchy for one transition chain,
// held as a CSR matrix (New) or as a Kronecker descriptor (NewKron).
type Solver struct {
	cfg    Config
	levels []*mgLevel
	gth    spmat.GTHWorkspace
	pool   *spmat.Pool
	y      []float64 // fine product buffer for the per-cycle residual
	// fineRes is the fine residual of the previous cycle (+Inf before the
	// first); it sets how far an implicit level 0 solves level 1.
	fineRes float64

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
// p itself; level k+1 has parts[k].NumBlocks() states). The last level is
// solved directly with dense GTH, so a chain whose coarsest level has more
// than 4096 states is rejected; an empty chain makes p itself the coarsest
// level.
//
// New builds the whole hierarchy structurally — coarse patterns, lumping
// plans and iterate buffers — so that Solve's cycles only rewrite values
// in place: after New, a cycle performs no heap allocation. Per partition
// it allocates a plan (a 32-bit destination per stored entry of the level
// above, weights and block scratch) and the coarse level's transpose, the
// only copy of that level. Level 0 reads p.T(), cached on p, unless
// Config.Refreshable asks for a solver-owned copy.
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

// maxCoarsest bounds the state count of the coarsest level, which every
// visit densifies and solves with GTH: 4096 states take a 128 MiB dense
// workspace and about 2·10¹⁰ multiply-adds per visit. The hierarchies
// built in this repository end at 72 states or fewer (Figure 5 at counter
// 32 ends at 32), so a larger coarsest level means a missing or truncated
// partition chain, which would otherwise surface as a multi-gigabyte
// allocation in the first cycle.
const maxCoarsest = 4096

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
	if size > maxCoarsest {
		return nil, fmt.Errorf("multigrid: coarsest level has %d states, more than the %d a dense GTH solve takes; extend the partition chain",
			size, maxCoarsest)
	}
	s := &Solver{cfg: cfg.withDefaults(), pool: cfg.Pool, y: make([]float64, n)}
	if s.pool == nil {
		s.pool = spmat.NewPool(cfg.Workers)
	}
	return s, nil
}

// stack appends lv and, below it, one explicit level per partition from
// parts[first] on: each level's plan lumps its transpose onto the next
// level's, which the plan owns and rewrites every cycle.
func (s *Solver) stack(lv *mgLevel, parts []*lump.Partition, first int) error {
	for k := first; ; k++ {
		s.levels = append(s.levels, lv)
		if k == len(parts) {
			break
		}
		plan, err := lump.NewPlan(lv.pt, parts[k])
		if err != nil {
			return fmt.Errorf("multigrid: level %d: %w", len(s.levels)-1, err)
		}
		lv.part, lv.chain, lv.plan = parts[k], k, plan
		lv.xc = make([]float64, parts[k].NumBlocks())
		lv = &mgLevel{size: parts[k].NumBlocks(), pt: plan.CoarseT()}
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
	pi, err := s.gth.StationaryT(lv.pt)
	if err == nil {
		copy(x, pi)
		return x
	}
	s.gaussSeidel(lv.pt, x, s.cfg.CoarsestMaxIter)
	return x
}

// cycle runs one multilevel cycle at the given level and returns the
// improved iterate. All buffers — coarse transposes, iterate vectors —
// live in the per-level workspaces; a cycle allocates nothing.
func (s *Solver) cycle(level int, x []float64) ([]float64, error) {
	lv := s.levels[level]
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
	if im := lv.imp; im != nil {
		im.restrict(x, s.levels[1].pt, lv.xc)
		if err := s.solveCoarse(im, lv.xc); err != nil {
			return nil, err
		}
		im.prolong(x, lv.xc)
	} else {
		if err := lv.plan.Update(x); err != nil {
			return nil, fmt.Errorf("multigrid: level %d: %w", level, err)
		}
		xc := lv.part.Restrict(lv.xc, x)
		// Below an implicit level 0 every level recurses once: solveCoarse
		// already re-enters level 1 as often as the fine residual needs.
		visits := 1
		if s.cfg.Cycle == WCycle && s.levels[0].imp == nil &&
			(s.cfg.PairLevels == 0 || lv.chain < s.cfg.PairLevels) {
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

// levelStats pairs the level sizes with the visit and work tallies
// accumulated since the current Solve began, finest first.
func (s *Solver) levelStats() []obs.LevelStat {
	stats := make([]obs.LevelStat, len(s.levels))
	for k, lv := range s.levels {
		stats[k] = obs.LevelStat{Level: k, Size: lv.size, Visits: s.levelVisits[k], SmoothNS: s.levelWorkNS[k]}
	}
	return stats
}

// workspaceBytes counts the heap the solver holds beyond the caller's
// finest matrix or descriptor: the coarse transposes, the plans'
// destination tables and weights, iterate and product buffers, the
// implicit level's tables and the coarsest GTH workspace (allocated by
// the first solve). Level 0's transpose counts only when Refreshable
// makes it solver-owned; otherwise it is cached on the caller's matrix and
// outlives the solver.
func (s *Solver) workspaceBytes() int64 {
	c := int64(s.levels[len(s.levels)-1].size)
	b := (int64(len(s.y)) + c*c + c) * 8
	for _, buf := range s.resBufs {
		b += int64(len(buf)) * 8
	}
	for k, lv := range s.levels {
		switch {
		case lv.imp != nil:
			b += lv.imp.workspaceBytes()
		case k > 0 || s.cfg.Refreshable:
			b += lv.pt.MemoryBytes()
		}
		if lv.plan != nil {
			b += lv.plan.MemoryBytes()
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
	clear(s.levelVisits)
	clear(s.levelWorkNS)
	// The deferred report also covers the error returns, so a canceled or
	// faulted solve still charges the work it did.
	probe := obs.Begin(s.cfg.Ctx, "multigrid", obs.Cycles, "multigrid.cycle", s.pool)
	defer func() { probe.End(obs.Work{Workspace: s.workspaceBytes(), Levels: s.levelStats()}) }()
	s.fineRes = math.Inf(1)
	for c := 1; c <= s.cfg.MaxCycles; c++ {
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
		if perr := probe.Iter(c, r); perr != nil {
			return Result{}, fmt.Errorf("multigrid: solve stopped after %d of %d cycles (residual %.3e): %w",
				c, s.cfg.MaxCycles, r, perr)
		}
		if r <= s.cfg.Tol {
			res.Converged = true
			break
		}
	}
	res.Pi = x
	res.LevelStats = s.levelStats()
	return res, nil
}

// RefreshFine adopts src as the finest level's matrix. src must have the
// identical sparsity pattern (the sweep engine checks with
// spmat.SamePattern before calling; this only validates the value count).
// The solver-owned level-0 transpose is refreshed from src through its
// permutation; coarse levels need nothing — their values are recomputed
// from the fine iterate every cycle anyway. The matrix src replaces is
// left as it was. Requires Config.Refreshable.
func (s *Solver) RefreshFine(src *spmat.CSR) error {
	if !s.cfg.Refreshable {
		return errors.New("multigrid: RefreshFine on a non-refreshable solver")
	}
	lv := s.levels[0]
	if n, want := src.NNZ(), lv.p.NNZ(); n != want {
		return fmt.Errorf("multigrid: RefreshFine value count %d, want %d", n, want)
	}
	src.RefreshTranspose(lv.pt, lv.perm)
	lv.p = src
	return nil
}

// fineProduct sets y = x·P on the finest level: a gather over the level-0
// transpose (the matrix's shared cache, or in refreshable mode the
// solver-owned, value-current copy), or the segment-by-segment link
// gather on an implicit level.
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
// points) on a reused solver is safe at any quiescent point. A NewKron
// solver ignores the cycle kind.
func (s *Solver) SetCycle(k CycleKind) { s.cfg.Cycle = k }

// SetSolveContext rebinds the context the next Solve runs under — its
// cancellation and its run handle (events, cost, fault hook) — so one
// long-lived solver can serve a sequence of per-request solves. Call
// between Solves, never during one.
func (s *Solver) SetSolveContext(ctx context.Context) { s.cfg.Ctx = ctx }

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
