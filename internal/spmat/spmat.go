// Package spmat provides the sparse and dense matrix kernels used by the
// Markov-chain analyses in this repository: a COO (triplet) builder, an
// immutable CSR format with row- and column-oriented vector products, a
// small dense type with LU factorization, and the subtraction-free GTH
// (Grassmann–Taksar–Heyman) stationary-distribution solver used at the
// coarsest level of the multigrid hierarchy.
//
// All matrices are real, float64, and indexed from zero. Transition
// probability matrices (TPMs) are stored row-stochastic: row i holds the
// distribution of the next state given current state i.
package spmat

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
)

// Triplet accumulates matrix entries in coordinate form. Duplicate entries
// are summed when the triplet is compressed to CSR, which is exactly the
// semantics needed when assembling a TPM by enumerating noise outcomes:
// several (state, noise) combinations may land in the same target state.
type Triplet struct {
	rows, cols int
	i, j       []int
	v          []float64
}

// NewTriplet returns an empty triplet accumulator for an r×c matrix.
func NewTriplet(r, c int) *Triplet {
	if r < 0 || c < 0 {
		panic("spmat: negative dimension")
	}
	return &Triplet{rows: r, cols: c}
}

// Dims returns the matrix dimensions.
func (t *Triplet) Dims() (r, c int) { return t.rows, t.cols }

// NNZ returns the number of accumulated entries (before duplicate merging).
func (t *Triplet) NNZ() int { return len(t.v) }

// Add accumulates v at (i, j). Zero values are kept so that an explicitly
// stored structural zero survives into the CSR pattern; callers that do not
// want them should simply not add them.
func (t *Triplet) Add(i, j int, v float64) {
	if i < 0 || i >= t.rows || j < 0 || j >= t.cols {
		panic(fmt.Sprintf("spmat: triplet index (%d,%d) out of range %dx%d", i, j, t.rows, t.cols))
	}
	t.i = append(t.i, i)
	t.j = append(t.j, j)
	t.v = append(t.v, v)
}

// Reserve grows the internal buffers to hold at least n entries, reducing
// reallocation while assembling large models.
func (t *Triplet) Reserve(n int) {
	if cap(t.v) >= n {
		return
	}
	i := make([]int, len(t.i), n)
	copy(i, t.i)
	j := make([]int, len(t.j), n)
	copy(j, t.j)
	v := make([]float64, len(t.v), n)
	copy(v, t.v)
	t.i, t.j, t.v = i, j, v
}

// ToCSR compresses the triplet into CSR form, summing duplicates.
func (t *Triplet) ToCSR() *CSR {
	// Counting sort by row, then sort each row segment by column and merge
	// duplicates. This is O(nnz log rowNNZ) and allocation-frugal.
	rowCount := make([]int, t.rows+1)
	for _, i := range t.i {
		rowCount[i+1]++
	}
	for r := 0; r < t.rows; r++ {
		rowCount[r+1] += rowCount[r]
	}
	perm := make([]int, len(t.v))
	next := make([]int, t.rows)
	copy(next, rowCount[:t.rows])
	for k, i := range t.i {
		perm[next[i]] = k
		next[i]++
	}

	rowPtr := make([]int, t.rows+1)
	colIdx := make([]int, 0, len(t.v))
	val := make([]float64, 0, len(t.v))
	type ent struct {
		j int
		v float64
	}
	var scratch []ent
	for r := 0; r < t.rows; r++ {
		lo, hi := rowCount[r], rowCount[r+1]
		scratch = scratch[:0]
		for k := lo; k < hi; k++ {
			e := perm[k]
			scratch = append(scratch, ent{t.j[e], t.v[e]})
		}
		slices.SortFunc(scratch, func(a, b ent) int { return cmp.Compare(a.j, b.j) })
		for k := 0; k < len(scratch); {
			j := scratch[k].j
			sum := 0.0
			for k < len(scratch) && scratch[k].j == j {
				sum += scratch[k].v
				k++
			}
			colIdx = append(colIdx, j)
			val = append(val, sum)
		}
		rowPtr[r+1] = len(val)
	}
	return &CSR{rows: t.rows, cols: t.cols, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// CSR is an immutable compressed-sparse-row matrix.
//
// Immutability has one sanctioned exception: solvers that keep the
// sparsity pattern fixed may refresh the stored values in place through
// RawValues (see its contract). The lazily cached transpose (T) is shared
// and must only be used on matrices whose values do not change.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	val        []float64

	tOnce sync.Once
	t     *CSR // lazily cached transpose, see T
}

// NewCSR builds a CSR matrix from raw slices. The slices are adopted, not
// copied; callers must not modify them afterwards. It validates structure.
func NewCSR(rows, cols int, rowPtr, colIdx []int, val []float64) (*CSR, error) {
	if len(rowPtr) != rows+1 {
		return nil, fmt.Errorf("spmat: rowPtr length %d, want %d", len(rowPtr), rows+1)
	}
	if rowPtr[0] != 0 || rowPtr[rows] != len(val) || len(colIdx) != len(val) {
		return nil, errors.New("spmat: inconsistent CSR buffers")
	}
	for r := 0; r < rows; r++ {
		if rowPtr[r] > rowPtr[r+1] {
			return nil, fmt.Errorf("spmat: rowPtr not monotone at row %d", r)
		}
		for k := rowPtr[r]; k < rowPtr[r+1]; k++ {
			if colIdx[k] < 0 || colIdx[k] >= cols {
				return nil, fmt.Errorf("spmat: column %d out of range in row %d", colIdx[k], r)
			}
			if k > rowPtr[r] && colIdx[k] <= colIdx[k-1] {
				return nil, fmt.Errorf("spmat: columns not strictly increasing in row %d", r)
			}
		}
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, val: val}, nil
}

// Dims returns the matrix dimensions.
func (m *CSR) Dims() (r, c int) { return m.rows, m.cols }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.val) }

// Row returns the column indices and values of row i. The returned slices
// alias internal storage and must not be modified.
func (m *CSR) Row(i int) (cols []int, vals []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.val[lo:hi]
}

// At returns the entry at (i, j), zero if not stored. O(log rowNNZ).
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	cols := m.colIdx[lo:hi]
	if k, ok := slices.BinarySearch(cols, j); ok {
		return m.val[lo+k]
	}
	return 0
}

// MulVec computes y = A·x (column vector on the right). y must have length
// equal to the row count and may not alias x.
func (m *CSR) MulVec(y, x []float64) {
	if len(x) != m.cols || len(y) != m.rows {
		panic("spmat: MulVec dimension mismatch")
	}
	m.mulVecRange(y, x, 0, m.rows)
}

// mulVecRange computes y[lo:hi] = (A·x)[lo:hi], the row-range kernel the
// parallel pool partitions by stored-entry count. Each y[r] is a serial
// per-row reduction, so the result is independent of the partitioning.
func (m *CSR) mulVecRange(y, x []float64, lo, hi int) {
	for r := lo; r < hi; r++ {
		sum := 0.0
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			sum += m.val[k] * x[m.colIdx[k]]
		}
		y[r] = sum
	}
}

// mulVecsBlock is the register-blocking width of the multi-vector kernel:
// up to this many right-hand sides accumulate in one fixed-size stack
// array while the row's stored entries stream past once.
const mulVecsBlock = 8

// mulVecsRange computes ys[b][lo:hi] = (A·xs[b])[lo:hi] for every packed
// right-hand side b — the blocked SpMM row-range kernel. The matrix row is
// traversed once per block of mulVecsBlock vectors: each stored entry's
// value and column index are loaded once and applied to the whole block,
// so k sweep iterates advance per matrix traversal instead of per SpMV.
// For each (b, r) the accumulation visits the row's entries in exactly the
// order mulVecRange does, so every output is bit-identical to the serial
// single-vector kernel.
func (m *CSR) mulVecsRange(ys, xs [][]float64, lo, hi int) {
	for b0 := 0; b0 < len(ys); b0 += mulVecsBlock {
		bn := len(ys) - b0
		if bn > mulVecsBlock {
			bn = mulVecsBlock
		}
		yb, xb := ys[b0:b0+bn], xs[b0:b0+bn]
		for r := lo; r < hi; r++ {
			var acc [mulVecsBlock]float64
			for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
				v, c := m.val[k], m.colIdx[k]
				for b := 0; b < bn; b++ {
					acc[b] += v * xb[b][c]
				}
			}
			for b := 0; b < bn; b++ {
				yb[b][r] = acc[b]
			}
		}
	}
}

// SamePattern reports whether a and b have identical dimensions and an
// identical sparsity pattern (rowPtr and colIdx element-wise equal). The
// sweep engine uses it to decide between an in-place value refresh and a
// full symbolic rebuild when moving to a neighboring parameter point.
func SamePattern(a, b *CSR) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.rows != b.rows || a.cols != b.cols || len(a.val) != len(b.val) {
		return false
	}
	for i, p := range a.rowPtr {
		if b.rowPtr[i] != p {
			return false
		}
	}
	for i, c := range a.colIdx {
		if b.colIdx[i] != c {
			return false
		}
	}
	return true
}

// VecMul computes y = x·A (row vector on the left), the fundamental
// operation of a Markov-chain power step: η' = η·P. y must have length
// equal to the column count and may not alias x.
func (m *CSR) VecMul(y, x []float64) {
	if len(x) != m.rows || len(y) != m.cols {
		panic("spmat: VecMul dimension mismatch")
	}
	for i := range y {
		y[i] = 0
	}
	for r := 0; r < m.rows; r++ {
		xr := x[r]
		if xr == 0 {
			continue
		}
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			y[m.colIdx[k]] += xr * m.val[k]
		}
	}
}

// Transpose returns Aᵀ as a new CSR matrix.
func (m *CSR) Transpose() *CSR {
	return m.transpose(nil)
}

// TransposeWithPerm returns Aᵀ together with the value permutation
// linking the two: t.val[perm[k]] = m.val[k] for every stored entry k.
// Solvers that refresh a fixed-pattern matrix's values in place use perm
// to refresh the transpose in one O(nnz) pass instead of rebuilding it,
// or to route writes meant for A's values straight into Aᵀ's.
// perm stores 32-bit positions, half the memory of the matrix's own
// indices, so m may hold at most math.MaxInt32 entries.
func (m *CSR) TransposeWithPerm() (t *CSR, perm []int32) {
	if len(m.val) > math.MaxInt32 {
		panic("spmat: TransposeWithPerm on more than math.MaxInt32 entries")
	}
	perm = make([]int32, len(m.val))
	return m.transpose(perm), perm
}

// T returns Aᵀ, computing and caching it on first use. The cached
// transpose is what turns the left-multiply x·A (a scatter over rows)
// into a race-free row-parallel gather for the pool kernels, and is
// shared by the column-sweep solvers; a one-shot multigrid solver's
// finest level reads it. Only valid on matrices whose values never
// change; in-place refreshers (RawValues) must manage their own
// transposes via TransposeWithPerm.
func (m *CSR) T() *CSR {
	m.tOnce.Do(func() { m.t = m.Transpose() })
	return m.t
}

func (m *CSR) transpose(perm []int32) *CSR {
	count := make([]int, m.cols+1)
	for _, j := range m.colIdx {
		count[j+1]++
	}
	for c := 0; c < m.cols; c++ {
		count[c+1] += count[c]
	}
	rowPtr := make([]int, m.cols+1)
	copy(rowPtr, count)
	colIdx := make([]int, len(m.colIdx))
	val := make([]float64, len(m.val))
	next := make([]int, m.cols)
	copy(next, count[:m.cols])
	for r := 0; r < m.rows; r++ {
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			j := m.colIdx[k]
			p := next[j]
			colIdx[p] = r
			val[p] = m.val[k]
			if perm != nil {
				perm[k] = int32(p)
			}
			next[j]++
		}
	}
	return &CSR{rows: m.cols, cols: m.rows, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// EntryIndex returns the position of stored entry (i, j) within RawValues,
// or -1 when the entry is not stored. O(log rowNNZ).
func (m *CSR) EntryIndex(i, j int) int {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	if k, ok := slices.BinarySearch(m.colIdx[lo:hi], j); ok {
		return lo + k
	}
	return -1
}

// RefreshTranspose re-derives t's values from m through the permutation
// TransposeWithPerm returned for m or for another matrix of m's pattern.
// One O(nnz) pass, no allocation. The multigrid solver calls it only when
// a sweep swaps in its next finest matrix (Solver.RefreshFine): its coarse
// levels exist only as transposes, which their lumping writes directly.
func (m *CSR) RefreshTranspose(t *CSR, perm []int32) {
	if len(perm) != len(m.val) || len(t.val) != len(m.val) {
		panic("spmat: RefreshTranspose permutation mismatch")
	}
	for k, v := range m.val {
		t.val[perm[k]] = v
	}
}

// RawValues exposes the backing value slice so that fixed-pattern solvers
// (repeated iterate-weighted lumping into a coarse transpose, the sweep's
// refresh of its finest matrix and transpose) can rewrite the stored
// values in place without reallocating the matrix. The sparsity pattern
// (rowPtr, colIdx) must never change, values must stay consistent with
// any invariants the caller relies on (e.g. the stochasticity of the
// matrix a transpose stands for), and a transpose already materialized
// by T is NOT refreshed — in-place mutators must maintain their own
// transposes via TransposeWithPerm.
func (m *CSR) RawValues() []float64 { return m.val }

// RowSums returns the vector of row sums (all 1 for a stochastic matrix).
func (m *CSR) RowSums() []float64 {
	s := make([]float64, m.rows)
	for r := 0; r < m.rows; r++ {
		sum := 0.0
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			sum += m.val[k]
		}
		s[r] = sum
	}
	return s
}

// Diag returns the main diagonal as a dense vector. One linear pass over
// each row's column slice (columns are strictly increasing, so the scan
// stops at the first column past the diagonal).
func (m *CSR) Diag() []float64 {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			j := m.colIdx[k]
			if j > i {
				break
			}
			if j == i {
				d[i] = m.val[k]
				break
			}
		}
	}
	return d
}

// CheckStochastic reports whether every row sums to 1 within tol and every
// entry is non-negative. It returns a descriptive error on failure.
func (m *CSR) CheckStochastic(tol float64) error {
	if m.rows != m.cols {
		return fmt.Errorf("spmat: TPM must be square, got %dx%d", m.rows, m.cols)
	}
	for r := 0; r < m.rows; r++ {
		sum := 0.0
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			if m.val[k] < -tol {
				return fmt.Errorf("spmat: negative probability %g at (%d,%d)", m.val[k], r, m.colIdx[k])
			}
			sum += m.val[k]
		}
		if math.Abs(sum-1) > tol {
			return fmt.Errorf("spmat: row %d sums to %g, want 1±%g", r, sum, tol)
		}
	}
	return nil
}

// ToDense expands the matrix into a dense copy. For small matrices only.
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.rows, m.cols)
	for r := 0; r < m.rows; r++ {
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			d.Set(r, m.colIdx[k], m.val[k])
		}
	}
	return d
}

// Identity returns the n×n identity matrix in CSR form.
func Identity(n int) *CSR {
	rowPtr := make([]int, n+1)
	colIdx := make([]int, n)
	val := make([]float64, n)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = i + 1
		colIdx[i] = i
		val[i] = 1
	}
	return &CSR{rows: n, cols: n, rowPtr: rowPtr, colIdx: colIdx, val: val}
}
