package multigrid

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"cdrstoch/internal/kron"
	"cdrstoch/internal/lump"
	"cdrstoch/internal/spmat"
)

// implicitLevel is level 0 of a solver whose TPM exists only as a
// Kronecker descriptor. Every term is Outer_t ⊗ S_t with the phase factor
// S_t innermost, so P maps each segment — m consecutive states that share
// their outer digits, in the CDR model one (data, counter) pair — onto
// segments through phase factors: P[(s,i),(s',j)] = Σ_t Outer_t[s,s']·
// S_t[i,j]. NewKron expands the outer factors once into links
// (s → s', term, coefficient), and the level runs segment by segment:
//
//   - Smoothing is Gauss–Seidel over the segments in index order. A
//     segment gathers coef·x_{s'}·S_t over its links from other segments;
//     where a link maps it onto itself, it then sweeps its states in order
//     through those links' transposed phase factors. The result is point
//     Gauss–Seidel on P, up to rounding.
//   - Restriction accumulates coef·R_mᵀ·diag(w_s)·S_t·R_m, per segment and
//     term (R_m the within-segment aggregation), into level 1's values at
//     offsets fixed at construction.
//
// The per-cycle residual stays on the descriptor's shuffle product. Cycles
// allocate nothing.
type implicitLevel struct {
	d  *kron.Descriptor
	ws kron.Workspace

	segs   int          // segments, alike on level 0 and level 1
	m, mc  int          // states per segment on level 0 and on level 1
	agg    []int        // state i of a segment → state agg[i] of its level-1 segment
	count  []int        // states of a segment per level-1 state
	phase  []*spmat.CSR // per term: the phase factor S_t
	phaseT []*spmat.CSR // per term: S_tᵀ when the term maps a segment onto itself, else nil

	out, in       []segLink // the links by source (then term), and by target with self links last
	outPtr, inPtr []int     // per segment: its range in out and in
	sweepOps      int       // multiply-adds of one sweep

	// loc[t] maps each stored entry of S_t to its entry of R_mᵀ·S_t·R_m,
	// whose rows locPtr[t] and columns locCol[t] hold; dest lists, link by
	// link in out order, the level-1 value index of each such entry.
	loc            [][]int32
	locPtr, locCol [][]int
	dest           []int32

	y, w []float64 // per-segment gather and aggregation-weight scratch
	acc  []float64 // one term's restricted phase factor
	mass []float64 // block masses of the restricted iterate (pre-correction)
	yc   []float64 // level-1 product buffer for the coarse residual

	maxCoarse int // bound on level-1 cycles per coarse solve
}

// segLink is one nonzero block of a term's outer factors: segment src maps
// onto segment dst through coef·S_term.
type segLink struct {
	src, dst, term int
	coef           float64
	dest           int // start of the link's entries in implicitLevel.dest
}

// NewKron returns the multilevel solver for a chain whose TPM exists only
// as a Kronecker descriptor. parts is the same partition chain New takes;
// its first fold partitions are composed into one restriction from the
// implicit level 0 straight to an explicit level 1, and the rest build the
// ordinary explicit levels below it (fold = len(parts) solves level 1
// directly with GTH). The folded partitions must aggregate the states of
// every segment (the innermost mode) alike, into one segment of level 1,
// as BuildPairHierarchy's do. Construction holds O(coarse nnz) memory:
// the global matrix never exists.
func NewKron(d *kron.Descriptor, fold int, parts []*lump.Partition, cfg Config) (*Solver, error) {
	if fold < 1 || fold > len(parts) {
		return nil, fmt.Errorf("multigrid: cannot fold %d of %d partitions into the implicit level", fold, len(parts))
	}
	cfg.Refreshable = false // no matrix values to refresh: RefreshFine errors
	s, err := newSolver(d.Dim(), parts, cfg)
	if err != nil {
		return nil, err
	}
	im, err := newImplicitLevel(d, parts[:fold])
	if err != nil {
		return nil, err
	}
	// The cap bounds the level-1 cycles of one coarse solve.
	im.maxCoarse = min(s.cfg.MaxCycles, 30)
	pc, err := im.coarsePattern()
	if err != nil {
		return nil, err
	}
	nc := len(im.mass)
	s.levels = append(s.levels, &mgLevel{size: d.Dim(), xc: make([]float64, nc), imp: im})
	coarse := &mgLevel{size: nc, p: pc}
	coarse.pt, coarse.perm = pc.TransposeWithPerm()
	if err := s.stack(coarse, parts, fold); err != nil {
		return nil, err
	}
	return s, nil
}

// newImplicitLevel checks that the composed fold partitions aggregate
// every segment alike and expands the descriptor's terms into links.
func newImplicitLevel(d *kron.Descriptor, fold []*lump.Partition) (*implicitLevel, error) {
	sizes := d.Sizes()
	m := sizes[len(sizes)-1]
	segs := d.Dim() / m
	nc := fold[len(fold)-1].NumBlocks()
	aggregate := func(i int) int {
		for _, part := range fold {
			i = part.BlockOf(i)
		}
		return i
	}
	mixed := fmt.Errorf("multigrid: the folded partitions do not aggregate every %d-state segment alike", m)
	if nc%segs != 0 {
		return nil, mixed
	}
	im := &implicitLevel{d: d, segs: segs, m: m, mc: nc / segs, agg: make([]int, m)}
	for i := range im.agg {
		im.agg[i] = aggregate(i)
	}
	for i := range d.Dim() {
		if aggregate(i) != i/m*im.mc+im.agg[i%m] {
			return nil, mixed
		}
	}
	local, err := lump.NewPartition(im.agg)
	if err != nil || local.NumBlocks() != im.mc {
		return nil, mixed
	}
	im.count = make([]int, im.mc)
	for _, I := range im.agg {
		im.count[I]++
	}

	nt := d.NumTerms()
	im.phase = make([]*spmat.CSR, nt)
	im.phaseT = make([]*spmat.CSR, nt)
	im.loc = make([][]int32, nt)
	im.locPtr = make([][]int, nt)
	im.locCol = make([][]int, nt)
	for t := range nt {
		term := d.Term(t)
		if term.Coeff == 0 {
			continue
		}
		im.phase[t] = term.Factors[len(term.Factors)-1]
		before := len(im.out)
		im.out = outerLinks(im.out, t, term, sizes)
		if len(im.out) == before {
			continue
		}
		im.locPtr[t], im.locCol[t], im.loc[t] = lump.CoarsePattern(im.phase[t], local)
	}
	slices.SortFunc(im.out, func(a, b segLink) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.term, b.term), cmp.Compare(a.dst, b.dst))
	})
	// The smoother gathers from a segment's other links first, then sweeps
	// through its self links: order those last.
	selfLast := func(l segLink) int {
		if l.src == l.dst {
			return 1
		}
		return 0
	}
	im.in = slices.Clone(im.out)
	slices.SortFunc(im.in, func(a, b segLink) int {
		return cmp.Or(cmp.Compare(a.dst, b.dst), cmp.Compare(selfLast(a), selfLast(b)),
			cmp.Compare(a.src, b.src), cmp.Compare(a.term, b.term))
	})
	im.outPtr = make([]int, segs+1)
	im.inPtr = make([]int, segs+1)
	nLoc, maxLoc := 0, 0
	for k := range im.out {
		l := &im.out[k]
		im.outPtr[l.src+1]++
		im.inPtr[l.dst+1]++
		l.dest = nLoc
		nLoc += len(im.locCol[l.term])
		maxLoc = max(maxLoc, len(im.locCol[l.term]))
		im.sweepOps += im.phase[l.term].NNZ()
		if l.src == l.dst && im.phaseT[l.term] == nil {
			im.phaseT[l.term] = im.phase[l.term].T()
		}
	}
	for s := range segs {
		im.outPtr[s+1] += im.outPtr[s]
		im.inPtr[s+1] += im.inPtr[s]
	}
	im.dest = make([]int32, nLoc)
	im.y = make([]float64, m)
	im.w = make([]float64, m)
	im.acc = make([]float64, maxLoc)
	im.mass = make([]float64, nc)
	im.yc = make([]float64, nc)
	return im, nil
}

// outerLinks appends term t's links: for every nonzero entry of the
// Kronecker product of its outer factors, the link from the entry's row
// segment to its column segment, valued coef·Π entries (multiplied
// outermost first, as kron.RowIter does). A term with a single factor has
// one segment, mapped onto itself with its coefficient.
func outerLinks(links []segLink, t int, term kron.Term, sizes []int) []segLink {
	outer := term.Factors[:len(term.Factors)-1]
	var walk func(c, src, dst int, v float64)
	walk = func(c, src, dst int, v float64) {
		if c == len(outer) {
			links = append(links, segLink{src: src, dst: dst, term: t, coef: v})
			return
		}
		n := sizes[c]
		for i := range n {
			cols, vals := outer[c].Row(i)
			for k, j := range cols {
				if vals[k] != 0 {
					walk(c+1, src*n+i, dst*n+j, v*vals[k])
				}
			}
		}
	}
	walk(0, 0, 0, term.Coeff)
	return links
}

// coarsePattern builds level 1's matrix with its sparsity fixed, from the
// links: row (s, I) holds column (s', J) when a link s → s' of a term
// whose restricted phase factor stores (I, J). It also fills dest. Values
// start at zero; restrict rewrites them every cycle.
func (im *implicitLevel) coarsePattern() (*spmat.CSR, error) {
	nc := im.segs * im.mc
	// A link's slots in dest start out holding the level-1 columns its
	// restricted phase factor reaches; lump.Pattern resolves them.
	for _, l := range im.out {
		for q, J := range im.locCol[l.term] {
			im.dest[l.dest+q] = int32(l.dst*im.mc + J)
		}
	}
	rowPtr, colIdx := lump.Pattern(nc, nc, im.dest, func(row int, visit func(lo, hi int)) {
		s, I := row/im.mc, row%im.mc
		for _, l := range im.out[im.outPtr[s]:im.outPtr[s+1]] {
			ptr := im.locPtr[l.term]
			visit(l.dest+ptr[I], l.dest+ptr[I+1])
		}
	})
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

// smooth runs steps relaxed Gauss–Seidel sweeps over the segments in index
// order, x_i ← (1−ω)x_i + ω·Σ_{j≠i} P_ji x_j / (1 − P_ii), keeping x
// normalized. Each sweep is accounted on the pool as one product of
// sweepOps multiply-adds.
func (im *implicitLevel) smooth(pool *spmat.Pool, x []float64, steps int, omega float64) {
	m := im.m
	for range steps {
		start := time.Now()
		for s := range im.segs {
			y := im.y
			clear(y)
			links := im.in[im.inPtr[s]:im.inPtr[s+1]]
			k := 0
			for ; k < len(links) && links[k].src != s; k++ {
				l := &links[k]
				ph := im.phase[l.term]
				for i, v := range x[l.src*m : (l.src+1)*m] {
					cv := l.coef * v
					if cv == 0 {
						continue
					}
					cols, vals := ph.Row(i)
					for q, j := range cols {
						y[j] += cv * vals[q]
					}
				}
			}
			self := links[k:]
			xs := x[s*m : (s+1)*m]
			for i := range xs {
				sum, diag := y[i], 0.0
				for e := range self {
					l := &self[e]
					cols, vals := im.phaseT[l.term].Row(i)
					for q, j := range cols {
						if j == i {
							diag += l.coef * vals[q]
						} else {
							sum += l.coef * vals[q] * xs[j]
						}
					}
				}
				if 1-diag < 1e-14 {
					continue // absorbing-in-isolation state: leave mass as is
				}
				xs[i] = (1-omega)*xs[i] + omega*sum/(1-diag)
			}
		}
		normalize(x)
		pool.CountExternal(1, im.sweepOps, start)
	}
}

// restrict rewrites pc's values with the current iterate's aggregation
// weights — Pc[I][J] = Σ_{i∈I} (x_i/‖x‖_I)·Σ_{j∈J} P_ij — and writes the
// block masses ‖x‖_I into xc, keeping a copy for prolong. Aggregates that
// carry no iterate mass fall back to uniform weights so the coarse chain
// stays stochastic. Per segment and term, the weighted phase factor is
// restricted once into acc, then added into level 1 for each of the
// term's links leaving the segment.
func (im *implicitLevel) restrict(x []float64, pc *spmat.CSR, xc []float64) {
	vals := pc.RawValues()
	clear(vals)
	m, mc := im.m, im.mc
	clear(im.mass)
	for s := range im.segs {
		ms := im.mass[s*mc : (s+1)*mc]
		for i, v := range x[s*m : (s+1)*m] {
			ms[im.agg[i]] += v
		}
	}
	for s := range im.segs {
		ms := im.mass[s*mc : (s+1)*mc]
		for i, v := range x[s*m : (s+1)*m] {
			if I := im.agg[i]; ms[I] > 0 {
				im.w[i] = v / ms[I]
			} else {
				im.w[i] = 1 / float64(im.count[I])
			}
		}
		links := im.out[im.outPtr[s]:im.outPtr[s+1]]
		for k := 0; k < len(links); {
			t := links[k].term
			acc, loc := im.acc[:len(im.locCol[t])], im.loc[t]
			clear(acc)
			q := 0
			for i, wi := range im.w {
				_, pv := im.phase[t].Row(i)
				if wi != 0 {
					for kk, v := range pv {
						acc[loc[q+kk]] += wi * v
					}
				}
				q += len(pv)
			}
			for ; k < len(links) && links[k].term == t; k++ {
				l := &links[k]
				for e, d := range im.dest[l.dest : l.dest+len(acc)] {
					vals[d] += l.coef * acc[e]
				}
			}
		}
	}
	copy(xc, im.mass)
}

// prolong disaggregates the coarse correction multiplicatively: states in
// aggregate I are rescaled by xc[I]/mass[I], preserving the smoothed
// within-block shape; blocks that had no mass receive theirs uniformly.
func (im *implicitLevel) prolong(x, xc []float64) {
	m, mc := im.m, im.mc
	for s := range im.segs {
		ms, cs := im.mass[s*mc:(s+1)*mc], xc[s*mc:(s+1)*mc]
		xs := x[s*m : (s+1)*m]
		for i := range xs {
			if I := im.agg[i]; ms[I] > 0 {
				xs[i] *= cs[I] / ms[I]
			} else {
				xs[i] = cs[I] / float64(im.count[I])
			}
		}
	}
	normalize(x)
}

// workspaceBytes counts the level's vectors, link tables and the shuffle
// scratch.
func (im *implicitLevel) workspaceBytes() int64 {
	words := 2 * im.d.Dim() // shuffle ping-pong
	words += len(im.agg) + len(im.count) + len(im.y) + len(im.w) + len(im.acc)
	words += len(im.mass) + len(im.yc) + len(im.outPtr) + len(im.inPtr)
	words += 5 * (len(im.out) + len(im.in))
	halves := len(im.dest) // 32-bit destination tables
	for t := range im.loc {
		words += len(im.locPtr[t]) + len(im.locCol[t])
		halves += len(im.loc[t])
	}
	return int64(words)*8 + int64(halves)*4
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
