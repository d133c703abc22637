package lump

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"cdrstoch/internal/spmat"
)

// Plan precomputes everything about iterate-weighted lumping that depends
// only on the fine sparsity pattern and the partition. It works on
// transposes, the layout the multigrid smoother reads: it reads the fine
// matrix P as Pᵀ and writes the coarse matrix P_c as P_cᵀ, so a hierarchy
// holds each coarse level once. The plan keeps P_cᵀ's structural pattern
// and, for every stored entry of Pᵀ, the index of the P_cᵀ entry it
// accumulates into. Repeated lumping along a sequence of iterates — the
// multigrid cycle does one per level per cycle — then reduces to a weights
// pass and an O(nnz) scatter into P_cᵀ's values, with zero allocation
// after the plan is built. Lump, by contrast, rebuilds a triplet and
// re-sorts it on every call.
//
// The coarse pattern is the structural image of the fine pattern: it keeps
// entries whose accumulated value happens to be zero for the current
// iterate, which a fresh Lump would drop. Explicit zeros are valid CSR and
// harmless to the smoothers and the coarsest-level GTH solve.
type Plan struct {
	pt     *spmat.CSR // fine transpose Pᵀ
	part   *Partition
	coarse *spmat.CSR // coarse transpose P_cᵀ
	dest   []int32    // P_cᵀ value index per stored entry of Pᵀ, row-major
	w      []float64  // disaggregation weights of the last Update
	sums   []float64  // per-block mass scratch, then the coarse row sums
	counts []int      // block sizes, for the vanished-mass uniform fallback
}

// NewPlan validates the pair like Lump and builds the structural plan from
// pt, the transpose of the fine matrix. pt's values may change between
// Updates (the multigrid hierarchy rewrites them in place level by
// level); its pattern must not.
func NewPlan(pt *spmat.CSR, part *Partition) (*Plan, error) {
	n, m := pt.Dims()
	if n != m {
		return nil, errors.New("lump: TPM must be square")
	}
	if n != part.NumStates() {
		return nil, fmt.Errorf("lump: partition covers %d states, TPM has %d", part.NumStates(), n)
	}
	if pt.NNZ() > math.MaxInt32 {
		return nil, fmt.Errorf("lump: %d stored entries exceed the plan's 32-bit destinations", pt.NNZ())
	}
	nb := part.NumBlocks()
	counts := make([]int, nb)
	for _, b := range part.blockOf {
		counts[b]++
	}
	// The structural image of Pᵀ is the pattern of P_cᵀ.
	rowPtr, colIdx, dest := CoarsePattern(pt, part)
	coarse, err := spmat.NewCSR(nb, nb, rowPtr, colIdx, make([]float64, len(colIdx)))
	if err != nil {
		return nil, fmt.Errorf("lump: internal: coarse pattern: %w", err)
	}
	return &Plan{
		pt:     pt,
		part:   part,
		coarse: coarse,
		dest:   dest,
		w:      make([]float64, n),
		sums:   make([]float64, nb),
		counts: counts,
	}, nil
}

// CoarsePattern returns the structural image of p's sparsity pattern under
// part as coarse CSR row pointers and ascending column indices: coarse
// entry (I, J) is stored when some stored fine entry (i, j), zero or not,
// has i in block I and j in block J. dest lists, row-major over p's stored
// entries, the index of the coarse entry each one accumulates into. p must
// be square over part's states, with at most math.MaxInt32 stored entries.
func CoarsePattern(p *spmat.CSR, part *Partition) (rowPtr, colIdx []int, dest []int32) {
	bo := part.blockOf
	nb := part.nBlocks
	// Group the fine rows by block, ascending within each (a counting
	// sort), and note where each fine row's stored entries start. Each
	// entry's slot in dest starts out holding its coarse column.
	first := make([]int, nb+1)
	for _, b := range bo {
		first[b+1]++
	}
	for b := range nb {
		first[b+1] += first[b]
	}
	rows := make([]int, len(bo))
	start := make([]int, len(bo)+1)
	next := slices.Clone(first[:nb])
	dest = make([]int32, p.NNZ())
	for i, b := range bo {
		rows[next[b]] = i
		next[b]++
		cols, _ := p.Row(i)
		start[i+1] = start[i] + len(cols)
		for k, j := range cols {
			dest[start[i]+k] = int32(bo[j])
		}
	}
	rowPtr, colIdx = Pattern(nb, nb, dest, func(I int, visit func(lo, hi int)) {
		for _, i := range rows[first[I]:first[I+1]] {
			visit(start[i], start[i+1])
		}
	})
	return rowPtr, colIdx, dest
}

// Pattern builds the sparsity pattern of a rows×cols matrix from candidate
// columns, which may repeat. slots holds one candidate column per slot;
// ranges(r, visit) calls visit(lo, hi) for each range of slots that are
// candidates of row r, and every slot must lie in exactly one such range.
// Pattern returns the row pointers and the ascending distinct columns of
// every row, and overwrites each slot with the index in colIdx of its
// column's entry. It makes three passes over the ranges: one to count,
// one to fill, one to resolve the slots. Slots are 32-bit, half the
// memory of a CSR index, because callers keep them as destination
// tables; cols and len(slots) must be at most math.MaxInt32.
func Pattern(rows, cols int, slots []int32, ranges func(r int, visit func(lo, hi int))) (rowPtr, colIdx []int) {
	// Count the distinct columns of each row; mark[c] is the last row that
	// counted c.
	mark := make([]int, cols)
	for c := range mark {
		mark[c] = -1
	}
	rowPtr = make([]int, rows+1)
	var r, n int
	count := func(lo, hi int) {
		for _, c := range slots[lo:hi] {
			if mark[c] != r {
				mark[c] = r
				n++
			}
		}
	}
	for r = 0; r < rows; r++ {
		n = 0
		ranges(r, count)
		rowPtr[r+1] = rowPtr[r] + n
	}
	// Fill and sort each row once. pos[c] is column c's index in the
	// current row once it is sorted (an index below the row's start is
	// left from an earlier row); the row's slots then read it.
	colIdx = make([]int, rowPtr[rows])
	pos := mark
	for c := range pos {
		pos[c] = -1
	}
	var lo, k int
	fill := func(a, b int) {
		for _, c := range slots[a:b] {
			if pos[c] < lo {
				pos[c] = k
				colIdx[k] = int(c)
				k++
			}
		}
	}
	resolve := func(a, b int) {
		for q := a; q < b; q++ {
			slots[q] = int32(pos[slots[q]])
		}
	}
	for r := range rows {
		lo, k = rowPtr[r], rowPtr[r]
		ranges(r, fill)
		hi := rowPtr[r+1]
		slices.Sort(colIdx[lo:hi])
		for q := lo; q < hi; q++ {
			pos[colIdx[q]] = q
		}
		ranges(r, resolve)
	}
	return rowPtr, colIdx
}

// CoarseT returns the plan-owned coarse transpose P_cᵀ. Update rewrites
// its values in place; the pointer stays valid across Updates.
func (pl *Plan) CoarseT() *spmat.CSR { return pl.coarse }

// Weights returns the disaggregation weights computed by the last Update.
// The slice aliases plan storage and is overwritten by the next Update.
func (pl *Plan) Weights() []float64 { return pl.w }

// MemoryBytes counts the plan's destination table, weights and block
// scratch; the coarse transpose is the next level's, and counted there.
func (pl *Plan) MemoryBytes() int64 {
	return int64(len(pl.dest))*4 + int64(len(pl.w)+len(pl.sums)+len(pl.counts))*8
}

// Update rewrites the coarse transpose's values for iterate x — the
// transpose of the operator Lump(p, part, x) builds, p the fine matrix —
// reusing the plan's pattern and buffers, and refreshes Weights. Each
// stored entry P_ij, read from row j of Pᵀ, adds w_i·P_ij into its coarse
// entry. Update then checks the coarse chain as CheckStochastic does: no
// entry below −1e−8 and every row sum (a column sum of P_cᵀ) within 1e−8
// of 1. No allocation.
func (pl *Plan) Update(x []float64) error {
	bo := pl.part.blockOf
	if len(x) != len(bo) {
		return errors.New("lump: weight vector length mismatch")
	}
	clear(pl.sums)
	for i, b := range bo {
		pl.sums[b] += x[i]
	}
	for i, b := range bo {
		if pl.sums[b] > 0 {
			pl.w[i] = x[i] / pl.sums[b]
		} else {
			pl.w[i] = 1 / float64(pl.counts[b])
		}
	}
	cv := pl.coarse.RawValues()
	clear(cv)
	k := 0
	for j := range bo {
		cols, vals := pl.pt.Row(j)
		dest := pl.dest[k : k+len(cols)]
		for q, i := range cols {
			cv[dest[q]] += pl.w[i] * vals[q]
		}
		k += len(cols)
	}
	const tol = 1e-8
	rowSums := pl.sums
	clear(rowSums)
	for J := range pl.part.nBlocks {
		cols, vals := pl.coarse.Row(J)
		for q, I := range cols {
			if vals[q] < -tol {
				return fmt.Errorf("lump: coarse TPM not stochastic: negative probability %g at (%d,%d)", vals[q], I, J)
			}
			rowSums[I] += vals[q]
		}
	}
	for I, sum := range rowSums {
		if math.Abs(sum-1) > tol {
			return fmt.Errorf("lump: coarse TPM not stochastic: row %d sums to %g, want 1±%g", I, sum, tol)
		}
	}
	return nil
}
