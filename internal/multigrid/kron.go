package multigrid

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"cdrstoch/internal/kron"
	"cdrstoch/internal/lump"
	"cdrstoch/internal/obs"
	"cdrstoch/internal/obs/cost"
	"cdrstoch/internal/spmat"
)

// KronSolver is the multilevel aggregation solver for a chain whose TPM
// exists only as a Kronecker descriptor. The finest level stays implicit:
// smoothing runs matrix-free through the descriptor's shuffle products
// (weighted Jacobi — the one splitting that needs only y = x·P and the
// diagonal, both of which a descriptor provides without a transpose).
// The first restriction lumps the innermost tensor mode — the phase-error
// discretization in the CDR model — AggLevels pairings at once, producing
// an explicit coarse CSR roughly 2^AggLevels smaller than the global nnz;
// from there the ordinary explicit hierarchy (Solver) takes over. The
// coarse matrix's sparsity pattern is fixed at construction; each cycle
// rewrites only its values with the iterate-weighted (Horton–Leutenegger)
// aggregation, so cycles allocate nothing.
type KronSolver struct {
	d   *kron.Descriptor
	cfg Config
	agg int // innermost-mode pairings folded into the first restriction

	n    int // fine dimension
	m    int // fine innermost (phase) size
	mc   int // coarse innermost size after agg pairings
	segs int // n / m: outer-mode segment count
	nc   int // coarse dimension segs·mc

	diag []float64 // fine diagonal, cached at construction
	ws   kron.Workspace
	y    []float64 // fine product buffer
	pool *spmat.Pool

	pc    *spmat.CSR // coarse matrix: fixed pattern, values refreshed per cycle
	it    *kron.RowIter
	inner *Solver // explicit hierarchy below the coarse level; nil when parts empty
	gth   spmat.GTHWorkspace
	xcOld []float64 // restricted block masses (pre-correction)
	xcNew []float64 // coarse solve iterate
	xcBuf []float64 // power-sweep product buffer of the GTH fallback

	rawTrace obs.Tracer
	curCycle int

	// Per-level work attribution in LevelSizes order: the implicit fine
	// level, then the coarse level and the inner hierarchy's levels, the
	// latter accumulated across the inner solves of one Solve.
	levelVisits []int
	levelWorkNS []int64
}

// NewKron validates the aggregation layout and builds the solver. The
// descriptor's innermost component is paired aggLevels times in the first
// restriction (its size m coarsens to the aggLevels-fold iterated ceiling
// of m/2); parts then describes the explicit hierarchy below that coarse
// level and must partition its nc states (empty parts solve the coarse
// level directly with GTH). Construction enumerates every implicit fine
// row once to fix the coarse sparsity pattern — O(global nnz) time but
// only O(coarse nnz) memory, which is the point: the global matrix never
// exists.
func NewKron(d *kron.Descriptor, aggLevels int, parts []*lump.Partition, cfg Config) (*KronSolver, error) {
	sizes := d.Sizes()
	if len(sizes) == 0 {
		return nil, errors.New("multigrid: empty descriptor")
	}
	if aggLevels < 1 {
		return nil, errors.New("multigrid: aggLevels must be at least 1")
	}
	m := sizes[len(sizes)-1]
	mc := m
	for a := 0; a < aggLevels; a++ {
		if mc == 1 {
			return nil, fmt.Errorf("multigrid: %d pairings exceed innermost size %d", aggLevels, m)
		}
		mc = (mc + 1) / 2
	}
	if mc >= m {
		return nil, fmt.Errorf("multigrid: %d pairings do not coarsen innermost size %d", aggLevels, m)
	}
	n := d.Dim()
	segs := n / m
	s := &KronSolver{
		d: d, agg: aggLevels,
		n: n, m: m, mc: mc, segs: segs, nc: segs * mc,
		rawTrace: cfg.Trace,
	}
	s.cfg = cfg.withDefaults()
	s.pool = s.cfg.Pool
	if s.pool == nil {
		s.pool = spmat.NewPool(s.cfg.Workers)
	}
	s.diag = d.Diag()
	s.y = make([]float64, n)
	s.it = d.NewRowIter()
	s.xcOld = make([]float64, s.nc)
	s.xcNew = make([]float64, s.nc)
	s.xcBuf = make([]float64, s.nc)
	if err := s.buildCoarsePattern(); err != nil {
		return nil, err
	}
	if len(parts) > 0 {
		innerCfg := s.cfg
		innerCfg.Refreshable = true
		innerCfg.Pool = s.pool
		// The inner hierarchy runs uninstrumented: the outer solve owns the
		// meter (one pool delta, one level report) and checks cancellation
		// and faults at its own cycle boundaries, so a shared context here
		// would double-attribute the coarse work.
		innerCfg.Ctx = nil
		innerCfg.Faults = nil
		innerCfg.Trace = nil
		if innerCfg.MaxCycles > 30 {
			innerCfg.MaxCycles = 30
		}
		inner, err := New(s.pc, parts, innerCfg)
		if err != nil {
			return nil, fmt.Errorf("multigrid: coarse hierarchy: %w", err)
		}
		s.inner = inner
	}
	levels := len(s.LevelSizes())
	s.levelVisits = make([]int, levels)
	s.levelWorkNS = make([]int64, levels)
	return s, nil
}

// blockOf maps a fine state index to its coarse aggregate: the outer-mode
// segment is kept, the innermost (phase) digit drops agg bits — integer
// halving composed agg times is exactly one shift, ragged tails included.
func (s *KronSolver) blockOf(i int) int {
	seg := i / s.m
	return seg*s.mc + (i-seg*s.m)>>s.agg
}

// blockSize returns the fine-state count of coarse aggregate I (the last
// phase block of each segment may be ragged).
func (s *KronSolver) blockSize(I int) int {
	lo := (I % s.mc) << s.agg
	hi := lo + 1<<s.agg
	if hi > s.m {
		hi = s.m
	}
	return hi - lo
}

// buildCoarsePattern fixes the coarse matrix's sparsity: the union, over
// each aggregate's fine rows, of the aggregated column indices. Values
// start at zero; refreshCoarse rewrites them every cycle.
func (s *KronSolver) buildCoarsePattern() error {
	rowPtr := make([]int, s.nc+1)
	var colIdx []int
	var scratch []int
	visit := func(j int, _ float64) {
		seg := j / s.m
		scratch = append(scratch, seg*s.mc+(j-seg*s.m)>>s.agg)
	}
	for I := 0; I < s.nc; I++ {
		scratch = scratch[:0]
		seg := I / s.mc
		lo := (I % s.mc) << s.agg
		hi := lo + 1<<s.agg
		if hi > s.m {
			hi = s.m
		}
		for p := lo; p < hi; p++ {
			s.it.Row(seg*s.m+p, visit)
		}
		sort.Ints(scratch)
		for k, J := range scratch {
			if k == 0 || J != scratch[k-1] {
				colIdx = append(colIdx, J)
			}
		}
		rowPtr[I+1] = len(colIdx)
	}
	pc, err := spmat.NewCSR(s.nc, s.nc, rowPtr, colIdx, make([]float64, len(colIdx)))
	if err != nil {
		return fmt.Errorf("multigrid: coarse pattern: %w", err)
	}
	s.pc = pc
	return nil
}

// refreshCoarse recomputes the coarse values with the current iterate's
// aggregation weights — Pc[I][J] = Σ_{i∈I} (x_i/‖x‖_I)·Σ_{j∈J} P_ij — and
// leaves the block masses ‖x‖_I in xcOld for the later disaggregation.
// Aggregates that carry no iterate mass fall back to uniform weights so
// the coarse chain stays stochastic.
func (s *KronSolver) refreshCoarse(x []float64) {
	vals := s.pc.RawValues()
	for k := range vals {
		vals[k] = 0
	}
	for I := range s.xcOld {
		s.xcOld[I] = 0
	}
	for i, v := range x {
		s.xcOld[s.blockOf(i)] += v
	}
	var curI int
	var curW float64
	visit := func(j int, v float64) {
		seg := j / s.m
		J := seg*s.mc + (j-seg*s.m)>>s.agg
		vals[s.pc.EntryIndex(curI, J)] += curW * v
	}
	for i := range x {
		curI = s.blockOf(i)
		if mass := s.xcOld[curI]; mass > 0 {
			curW = x[i] / mass
		} else {
			curW = 1 / float64(s.blockSize(curI))
		}
		if curW == 0 {
			continue
		}
		s.it.Row(i, visit)
	}
}

// smoothFine runs steps weighted-Jacobi sweeps on the implicit level:
// x_i ← (1−ω)x_i + ω·((x·P)_i − P_ii·x_i)/(1 − P_ii), the transpose-free
// splitting, with one shuffle product per sweep accounted on the pool.
func (s *KronSolver) smoothFine(x []float64, steps int) {
	omega := s.cfg.Damping
	for t := 0; t < steps; t++ {
		start := time.Now()
		s.d.VecMulWs(&s.ws, s.y, x)
		s.pool.CountExternal(1, int(s.d.OpsPerMul()), start)
		for i := range x {
			den := 1 - s.diag[i]
			if den < 1e-14 {
				continue // absorbing-in-isolation state: leave mass as is
			}
			gs := (s.y[i] - s.diag[i]*x[i]) / den
			x[i] = (1-omega)*x[i] + omega*gs
		}
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
}

// coarseSolve improves the restricted iterate: through the inner explicit
// hierarchy when one exists (its finest values refreshed in place from
// the just-rebuilt coarse matrix), by direct GTH otherwise, with damped
// power sweeps as the reducible-chain fallback. The work lands in the
// per-level tallies at the positions LevelSizes lists it.
func (s *KronSolver) coarseSolve() error {
	copy(s.xcNew, s.xcOld)
	if s.inner != nil {
		if err := s.inner.RefreshFine(s.pc); err != nil {
			return err
		}
		res, err := s.inner.Solve(s.xcNew)
		if err != nil {
			return err
		}
		copy(s.xcNew, res.Pi)
		for k := range s.inner.levels {
			s.levelVisits[k+1] += s.inner.levelVisits[k]
			s.levelWorkNS[k+1] += s.inner.levelWorkNS[k]
		}
		return nil
	}
	s.levelVisits[1]++
	start := time.Now()
	s.directSolve()
	s.levelWorkNS[1] += time.Since(start).Nanoseconds()
	return nil
}

// directSolve solves the coarse chain in xcNew with GTH, falling back to
// damped power sweeps through the solver-owned product buffer.
func (s *KronSolver) directSolve() {
	if pi, err := s.gth.StationaryCSR(s.pc); err == nil {
		copy(s.xcNew, pi)
		return
	}
	omega := s.cfg.Damping
	for t := 0; t < s.cfg.CoarsestMaxIter; t++ {
		s.pc.VecMul(s.xcBuf, s.xcNew)
		norm := 0.0
		for i := range s.xcNew {
			s.xcNew[i] = (1-omega)*s.xcNew[i] + omega*s.xcBuf[i]
			norm += s.xcNew[i]
		}
		if norm > 0 {
			inv := 1 / norm
			for i := range s.xcNew {
				s.xcNew[i] *= inv
			}
		}
	}
}

// prolong disaggregates the coarse correction multiplicatively: states in
// aggregate I are rescaled by xcNew[I]/xcOld[I], preserving the smoothed
// within-block shape; blocks that had no mass receive theirs uniformly.
func (s *KronSolver) prolong(x []float64) {
	for i := range x {
		I := s.blockOf(i)
		if s.xcOld[I] > 0 {
			x[i] *= s.xcNew[I] / s.xcOld[I]
		} else {
			x[i] = s.xcNew[I] / float64(s.blockSize(I))
		}
	}
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

// LevelSizes returns the state count of every level, finest first: the
// implicit fine level, the aggregated coarse level, then the inner
// explicit hierarchy's coarser levels.
func (s *KronSolver) LevelSizes() []int {
	sizes := []int{s.n}
	if s.inner != nil {
		sizes = append(sizes, s.inner.LevelSizes()...)
	} else {
		sizes = append(sizes, s.nc)
	}
	return sizes
}

// workspaceBytes estimates the solver's heap footprint beyond the
// descriptor itself: the coarse matrix and hierarchy, the fine-level
// vectors, and the shuffle scratch.
func (s *KronSolver) workspaceBytes() int64 {
	b := s.pc.MemoryBytes()
	b += int64(len(s.diag)+len(s.y)+len(s.xcOld)+len(s.xcNew)+len(s.xcBuf)) * 8
	b += 2 * int64(s.n) * 8 // shuffle ping-pong scratch
	if s.inner != nil {
		b += s.inner.workspaceBytes()
	}
	return b
}

// SetSolveContext rebinds the context consulted at every cycle boundary,
// mirroring Solver.SetSolveContext for reused solvers.
func (s *KronSolver) SetSolveContext(ctx context.Context) {
	s.cfg.Ctx = ctx
	s.cfg.Trace = obs.StampFromContext(ctx, s.rawTrace)
}

// Solve runs aggregation cycles from x0 (uniform when nil) until the
// residual criterion is met or MaxCycles is exhausted. One cycle is:
// pre-smooth the implicit level, rebuild the coarse values with the
// iterate's weights, solve the coarse chain, disaggregate, post-smooth,
// then measure ‖xP − x‖₁ with one shuffle product.
func (s *KronSolver) Solve(x0 []float64) (Result, error) {
	x := make([]float64, s.n)
	if x0 == nil {
		for i := range x {
			x[i] = 1 / float64(s.n)
		}
	} else {
		if len(x0) != s.n {
			return Result{}, fmt.Errorf("multigrid: x0 length %d, want %d", len(x0), s.n)
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
	for k := range s.levelVisits {
		s.levelVisits[k], s.levelWorkNS[k] = 0, 0
	}
	endSpan := obs.StartSpan(s.cfg.Trace, "multigrid-kron")
	defer endSpan()
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
	for c := 1; c <= s.cfg.MaxCycles; c++ {
		if s.cfg.Ctx != nil {
			if cerr := s.cfg.Ctx.Err(); cerr != nil {
				return Result{}, fmt.Errorf("multigrid: kron solve stopped after %d of %d cycles (residual %.3e): %w",
					res.Cycles, s.cfg.MaxCycles, res.Residual, cerr)
			}
		}
		if ferr := s.cfg.Faults.FireCtx(s.cfg.Ctx, "multigrid.cycle"); ferr != nil {
			return Result{}, fmt.Errorf("multigrid: kron solve stopped after %d of %d cycles (residual %.3e): %w",
				res.Cycles, s.cfg.MaxCycles, res.Residual, ferr)
		}
		s.curCycle = c
		obs.LevelEvent(s.cfg.Trace, "multigrid", c, 0, s.n)
		s.levelVisits[0]++
		start := time.Now()
		s.smoothFine(x, s.cfg.PreSmooth)
		s.levelWorkNS[0] += time.Since(start).Nanoseconds()

		obs.LevelEvent(s.cfg.Trace, "multigrid", c, 1, s.nc)
		s.refreshCoarse(x)
		if err := s.coarseSolve(); err != nil {
			return Result{}, err
		}
		s.prolong(x)

		start = time.Now()
		s.smoothFine(x, s.cfg.PostSmooth)
		s.levelWorkNS[0] += time.Since(start).Nanoseconds()

		mulStart := time.Now()
		s.d.VecMulWs(&s.ws, s.y, x)
		s.pool.CountExternal(1, int(s.d.OpsPerMul()), mulStart)
		r := 0.0
		for i := range x {
			r += math.Abs(s.y[i] - x[i])
		}
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
