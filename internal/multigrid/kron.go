package multigrid

import (
	"fmt"
	"math"
	"slices"
	"time"

	"cdrstoch/internal/kron"
	"cdrstoch/internal/lump"
	"cdrstoch/internal/spmat"
)

// implicitLevel is level 0 of a solver whose TPM exists only as a
// Kronecker descriptor. Smoothing runs matrix-free through the
// descriptor's shuffle products (weighted Jacobi — the one splitting that
// needs only y = x·P and the diagonal, both of which a descriptor provides
// without a transpose). Restriction streams the descriptor's rows through
// the folded partitions into level 1's explicit CSR, whose sparsity
// pattern is fixed at construction; each cycle rewrites only its values
// with the iterate-weighted (Horton–Leutenegger) aggregation, so cycles
// allocate nothing.
type implicitLevel struct {
	d    *kron.Descriptor
	diag []float64 // fine diagonal, cached at construction
	ws   kron.Workspace
	it   *kron.RowIter

	blockOf []int     // fine state → level-1 aggregate: the folded partitions composed
	count   []int     // fine states per aggregate
	mass    []float64 // block masses of the restricted iterate (pre-correction)
	yc      []float64 // level-1 product buffer for the coarse residual

	maxCoarse int // bound on level-1 cycles per coarse solve
}

// NewKron returns the multilevel solver for a chain whose TPM exists only
// as a Kronecker descriptor. parts is the same partition chain New takes;
// its first fold partitions are composed into one restriction from the
// implicit level 0 straight to an explicit level 1, and the rest build the
// ordinary explicit levels below it (fold = len(parts) solves level 1
// directly with GTH). Construction enumerates every implicit fine row once
// to fix level 1's sparsity pattern — O(global nnz) time but only
// O(coarse nnz) memory, which is the point: the global matrix never
// exists.
func NewKron(d *kron.Descriptor, fold int, parts []*lump.Partition, cfg Config) (*Solver, error) {
	if fold < 1 || fold > len(parts) {
		return nil, fmt.Errorf("multigrid: cannot fold %d of %d partitions into the implicit level", fold, len(parts))
	}
	cfg.Refreshable = false // no matrix values to refresh: RefreshFine errors
	s, err := newSolver(d.Dim(), parts, cfg)
	if err != nil {
		return nil, err
	}
	im := &implicitLevel{
		d: d, diag: d.Diag(), it: d.NewRowIter(),
		blockOf: make([]int, d.Dim()),
		// The cap bounds the level-1 cycles of one coarse solve.
		maxCoarse: min(s.cfg.MaxCycles, 30),
	}
	nc := parts[fold-1].NumBlocks()
	im.count = make([]int, nc)
	for i := range im.blockOf {
		b := i
		for _, part := range parts[:fold] {
			b = part.BlockOf(b)
		}
		im.blockOf[i] = b
		im.count[b]++
	}
	im.mass = make([]float64, nc)
	im.yc = make([]float64, nc)
	pc, err := im.coarsePattern()
	if err != nil {
		return nil, err
	}
	s.levels = append(s.levels, &mgLevel{size: d.Dim(), xc: make([]float64, nc), imp: im})
	coarse := &mgLevel{size: nc, p: pc}
	coarse.pt, coarse.perm = pc.TransposeWithPerm()
	if err := s.stack(coarse, parts, fold); err != nil {
		return nil, err
	}
	return s, nil
}

// coarsePattern builds level 1's matrix with its sparsity fixed: the
// union, over each aggregate's fine rows, of the aggregated column
// indices. Values start at zero; restrict rewrites them every cycle.
func (im *implicitLevel) coarsePattern() (*spmat.CSR, error) {
	nc := len(im.count)
	// Group the fine rows by aggregate, ascending within each (a counting
	// sort: three slices, where per-aggregate lists would cost a few small
	// allocations per aggregate).
	first := make([]int, nc+1)
	for I, c := range im.count {
		first[I+1] = first[I] + c
	}
	rows := make([]int, len(im.blockOf))
	next := slices.Clone(first[:nc])
	for i, b := range im.blockOf {
		rows[next[b]] = i
		next[b]++
	}
	rowPtr := make([]int, nc+1)
	var colIdx, scratch []int
	visit := func(j int, _ float64) { scratch = append(scratch, im.blockOf[j]) }
	for I := range nc {
		scratch = scratch[:0]
		for _, i := range rows[first[I]:first[I+1]] {
			im.it.Row(i, visit)
		}
		slices.Sort(scratch)
		colIdx = append(colIdx, slices.Compact(scratch)...)
		rowPtr[I+1] = len(colIdx)
	}
	pc, err := spmat.NewCSR(nc, nc, rowPtr, colIdx, make([]float64, len(colIdx)))
	if err != nil {
		return nil, fmt.Errorf("multigrid: coarse pattern: %w", err)
	}
	return pc, nil
}

// mul sets y = x·P with one shuffle product, accounted on the pool.
func (im *implicitLevel) mul(pool *spmat.Pool, y, x []float64) {
	start := time.Now()
	im.d.VecMulWs(&im.ws, y, x)
	pool.CountExternal(1, int(im.d.OpsPerMul()), start)
}

// smooth runs steps weighted-Jacobi sweeps,
// x_i ← (1−ω)x_i + ω·((x·P)_i − P_ii·x_i)/(1 − P_ii), the transpose-free
// splitting, with one shuffle product into y per sweep.
func (im *implicitLevel) smooth(pool *spmat.Pool, y, x []float64, steps int, omega float64) {
	for t := 0; t < steps; t++ {
		im.mul(pool, y, x)
		for i := range x {
			den := 1 - im.diag[i]
			if den < 1e-14 {
				continue // absorbing-in-isolation state: leave mass as is
			}
			gs := (y[i] - im.diag[i]*x[i]) / den
			x[i] = (1-omega)*x[i] + omega*gs
		}
		normalize(x)
	}
}

// restrict rewrites pc's values with the current iterate's aggregation
// weights — Pc[I][J] = Σ_{i∈I} (x_i/‖x‖_I)·Σ_{j∈J} P_ij — and writes the
// block masses ‖x‖_I into xc, keeping a copy for prolong. Aggregates that
// carry no iterate mass fall back to uniform weights so the coarse chain
// stays stochastic.
func (im *implicitLevel) restrict(x []float64, pc *spmat.CSR, xc []float64) {
	vals := pc.RawValues()
	clear(vals)
	clear(im.mass)
	for i, v := range x {
		im.mass[im.blockOf[i]] += v
	}
	var curI int
	var curW float64
	visit := func(j int, v float64) {
		vals[pc.EntryIndex(curI, im.blockOf[j])] += curW * v
	}
	for i := range x {
		curI = im.blockOf[i]
		if mass := im.mass[curI]; mass > 0 {
			curW = x[i] / mass
		} else {
			curW = 1 / float64(im.count[curI])
		}
		if curW == 0 {
			continue
		}
		im.it.Row(i, visit)
	}
	copy(xc, im.mass)
}

// prolong disaggregates the coarse correction multiplicatively: states in
// aggregate I are rescaled by xc[I]/mass[I], preserving the smoothed
// within-block shape; blocks that had no mass receive theirs uniformly.
func (im *implicitLevel) prolong(x, xc []float64) {
	for i := range x {
		I := im.blockOf[i]
		if im.mass[I] > 0 {
			x[i] *= xc[I] / im.mass[I]
		} else {
			x[i] = xc[I] / float64(im.count[I])
		}
	}
	normalize(x)
}

// workspaceBytes counts the level's vectors and the shuffle scratch.
func (im *implicitLevel) workspaceBytes() int64 {
	n := len(im.blockOf)
	words := len(im.diag) + n + 2*n // diagonal, block map, shuffle ping-pong
	words += len(im.count) + len(im.mass) + len(im.yc)
	return int64(words) * 8
}

// solveCoarse enters level 1 from the implicit level 0 until the coarse
// residual ‖x_c P_c − x_c‖₁ is at most max(Tol, 0.1·fineRes), fineRes
// being the fine residual of the previous cycle (+Inf on the first, which
// enters once): the next cycle re-lumps P_c from a better fine iterate, so
// solving this one further buys nothing. maxCoarse bounds the loop, and a
// level 1 that is the coarsest is solved directly, once.
func (s *Solver) solveCoarse(im *implicitLevel, xc []float64) error {
	next := s.levels[1]
	target := max(s.cfg.Tol, 0.1*s.fineRes)
	for c := 1; ; c++ {
		// cycle works in place: it returns the slice it was given.
		if _, err := s.cycle(1, xc); err != nil {
			return err
		}
		if c == im.maxCoarse || math.IsInf(target, 1) || next.plan == nil {
			return nil
		}
		s.pool.VecMulT(next.p, next.pt, im.yc, xc)
		r := 0.0
		for i, v := range xc {
			r += math.Abs(im.yc[i] - v)
		}
		if r <= target {
			return nil
		}
	}
}
