// Package kron implements stochastic-automata-network (SAN) descriptors:
// transition probability matrices represented as sums of Kronecker
// products of small per-component matrices, in the spirit of Plateau's
// stochastic automata networks and the "hierarchical Kronecker
// algebra-like techniques" the paper identifies as the scaling path for
// storing and manipulating very large structured TPMs.
//
// A descriptor never materializes the global matrix: the fundamental
// operations y = x·P and y = P·x are evaluated term by term with the
// shuffle algorithm, one tensor mode at a time, at a cost proportional to
// the component matrices' nonzeros times the remaining dimensions. A
// Descriptor satisfies markov.Operator (Dims, MulVec, VecMul, Diag,
// RowSums), so every operator-backed markov solver — power, Jacobi,
// GMRES — and the multigrid Kron path run directly on the implicit form.
package kron

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"cdrstoch/internal/spmat"
)

// ErrUnconverged marks an iterative Kron solve that exhausted its budget
// without reaching tolerance. core.ErrUnconverged aliases this sentinel
// (core imports kron, never the reverse), so errors.Is matches a Kron
// solve's failure against either name — the service's postmortem and
// retry classification work unchanged for the matrix-free path.
var ErrUnconverged = errors.New("did not converge")

// Term is one Kronecker-product summand c·(F₁ ⊗ F₂ ⊗ … ⊗ F_C).
type Term struct {
	// Coeff scales the product term (typically an event probability).
	Coeff float64
	// Factors holds one square matrix per component, outermost first.
	Factors []*spmat.CSR
}

// Descriptor is a sum of Kronecker-product terms over a fixed component
// structure. All terms must agree on the per-component dimensions.
type Descriptor struct {
	sizes []int
	dim   int
	terms []Term

	// vecSlabs[t][c] and matSlabs[t][c] list, ascending, the left slabs
	// of term t's mode-c product that can hold a nonzero in x·P and P·x
	// respectively; nil marks a term that is structurally zero in that
	// direction. vecOps is the multiply-add count of x·P over those slabs.
	vecSlabs, matSlabs [][][]int
	vecOps             int64

	// workers is the slab-parallel width of the shuffle products; set
	// once via SetWorkers before the descriptor is shared.
	workers int
	// ws recycles shuffle scratch for the convenience VecMul/MulVec
	// forms, so repeated multiplies allocate nothing after warmup.
	ws sync.Pool
}

// NewDescriptor validates the terms and returns a descriptor. It also
// fixes, per term and mode, which tensor slabs the shuffle products can
// reach (activeSlabs), so the factors must not be modified afterwards.
func NewDescriptor(terms []Term) (*Descriptor, error) {
	if len(terms) == 0 {
		return nil, errors.New("kron: no terms")
	}
	var sizes []int
	for ti, t := range terms {
		if len(t.Factors) == 0 {
			return nil, fmt.Errorf("kron: term %d has no factors", ti)
		}
		if sizes == nil {
			sizes = make([]int, len(t.Factors))
			for c, f := range t.Factors {
				r, cl := f.Dims()
				if r != cl {
					return nil, fmt.Errorf("kron: term %d factor %d is %dx%d, want square", ti, c, r, cl)
				}
				sizes[c] = r
			}
		} else {
			if len(t.Factors) != len(sizes) {
				return nil, fmt.Errorf("kron: term %d has %d factors, want %d", ti, len(t.Factors), len(sizes))
			}
			for c, f := range t.Factors {
				r, cl := f.Dims()
				if r != sizes[c] || cl != sizes[c] {
					return nil, fmt.Errorf("kron: term %d factor %d is %dx%d, want %dx%d",
						ti, c, r, cl, sizes[c], sizes[c])
				}
			}
		}
	}
	dim := 1
	for _, s := range sizes {
		if s <= 0 {
			return nil, errors.New("kron: zero-dimensional factor")
		}
		next := dim * s
		if next/s != dim {
			return nil, errors.New("kron: global dimension overflows")
		}
		dim = next
	}
	d := &Descriptor{sizes: sizes, dim: dim, terms: terms}
	d.vecSlabs = make([][][]int, len(terms))
	d.matSlabs = make([][][]int, len(terms))
	for ti, t := range terms {
		if t.Coeff == 0 {
			continue
		}
		d.vecSlabs[ti] = activeSlabs(t.Factors, sizes, true)
		d.matSlabs[ti] = activeSlabs(t.Factors, sizes, false)
		if slabs := d.vecSlabs[ti]; slabs != nil {
			right := dim
			for c, f := range t.Factors {
				right /= sizes[c]
				d.vecOps += int64(len(slabs[c])) * int64(f.NNZ()) * int64(right)
			}
		}
	}
	d.ws.New = func() any { return &Workspace{} }
	return d, nil
}

// activeSlabs lists, for every mode c of one term, the left slabs of the
// mode-c product that can hold a nonzero: the mixed-radix indices over
// sizes[:c] whose digits lie in the nonzero supports of the earlier
// factors — their columns for x·P (cols), their rows for P·x. Every other
// slab of the mode-c input is an exact zero, whatever the vector. It
// returns nil when some factor has no nonzero at all, so that the term's
// product is structurally zero.
func activeSlabs(factors []*spmat.CSR, sizes []int, cols bool) [][]int {
	slabs := make([][]int, len(factors))
	slabs[0] = []int{0}
	for c, f := range factors {
		supp := nonzeroSupport(f, cols)
		if len(supp) == 0 {
			return nil
		}
		if c+1 == len(factors) {
			break
		}
		next := make([]int, 0, len(slabs[c])*len(supp))
		for _, l := range slabs[c] {
			for _, j := range supp {
				next = append(next, l*sizes[c]+j)
			}
		}
		slabs[c+1] = next
	}
	return slabs
}

// nonzeroSupport lists, ascending, the columns (cols) or the rows of the
// square factor f that hold a nonzero value; stored zeros do not count.
func nonzeroSupport(f *spmat.CSR, cols bool) []int {
	n, _ := f.Dims()
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		cs, vs := f.Row(i)
		for k, j := range cs {
			if vs[k] == 0 {
				continue
			}
			if cols {
				seen[j] = true
			} else {
				seen[i] = true
			}
		}
	}
	var supp []int
	for j, ok := range seen {
		if ok {
			supp = append(supp, j)
		}
	}
	return supp
}

// Dim returns the global state-space size (product of component sizes).
func (d *Descriptor) Dim() int { return d.dim }

// Dims returns the square global dimensions, matching spmat.CSR.Dims and
// the markov.Operator surface.
func (d *Descriptor) Dims() (r, c int) { return d.dim, d.dim }

// Sizes returns the per-component dimensions, outermost first.
func (d *Descriptor) Sizes() []int {
	out := make([]int, len(d.sizes))
	copy(out, d.sizes)
	return out
}

// NumTerms returns the number of Kronecker terms.
func (d *Descriptor) NumTerms() int { return len(d.terms) }

// Term returns term i: its coefficient and its factors, outermost first.
// The factor slice is a copy, but the matrices are the descriptor's own
// and must not be modified.
func (d *Descriptor) Term(i int) Term {
	t := d.terms[i]
	return Term{Coeff: t.Coeff, Factors: slices.Clone(t.Factors)}
}

// SetWorkers sets the parallel width of subsequent shuffle products:
// each mode product splits race-free over disjoint tensor slabs (its
// active left slabs when there are several, the trailing stride when
// there is one). 0 or 1 keeps the products serial; descriptors below
// spmat.ParallelCutoff stay serial regardless. Set once before the
// descriptor is shared across goroutines — the width is read unlocked on
// the multiply hot path.
func (d *Descriptor) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	d.workers = n
}

// NNZ returns the stored entries across all factor matrices — the
// descriptor's actual storage, as opposed to the global matrix's nnz.
func (d *Descriptor) NNZ() int64 {
	var n int64
	for _, t := range d.terms {
		for _, f := range t.Factors {
			n += int64(f.NNZ())
		}
	}
	return n
}

// MemoryBytes estimates the descriptor's heap footprint: the factor
// matrices' CSR arrays. This is the matrix-memory number the cost
// accounting reports for Kron-backed solves; compare it against the
// materialized product's CSR.MemoryBytes to see the compression.
func (d *Descriptor) MemoryBytes() int64 {
	var b int64
	for _, t := range d.terms {
		for _, f := range t.Factors {
			b += f.MemoryBytes()
		}
	}
	return b
}

// OpsPerMul estimates the multiply-add count of one shuffle product
// y = x·P: Σ_t Σ_c nnz(F_c)·a_tc·r_c, where a_tc counts the active left
// slabs of term t's mode-c product and r_c = n_{c+1}⋯n_C is its trailing
// stride. When every factor has full support a_tc·r_c = dim/n_c. The cost
// layer attributes this as the "entries touched" of each implicit SpMV,
// keeping effective-bandwidth estimates meaningful for matrix-free solves.
func (d *Descriptor) OpsPerMul() int64 { return d.vecOps }

// Workspace holds the two scratch vectors a shuffle product ping-pongs
// between. The zero value is ready; buffers grow to the descriptor
// dimension on first use and are reused afterwards, so a solver that
// keeps a Workspace performs zero allocations per multiply. A Workspace
// serves one multiply at a time — share descriptors, not workspaces.
type Workspace struct {
	cur, next []float64
}

// ensure sizes the scratch for an n-dimensional product, reusing capacity.
func (w *Workspace) ensure(n int) {
	if cap(w.cur) < n {
		w.cur = make([]float64, n)
		w.next = make([]float64, n)
	}
	w.cur = w.cur[:n]
	w.next = w.next[:n]
}

// clearSlab zeroes the stride window rlo ≤ r < rhi of every row of the
// n×right output slab that starts at base.
func clearSlab(out []float64, base, n, right, rlo, rhi int) {
	if rhi-rlo == right {
		clear(out[base : base+n*right])
		return
	}
	for j := 0; j < n; j++ {
		o := base + j*right
		clear(out[o+rlo : o+rhi])
	}
}

// modeVecMulPart computes the mode-k vector–matrix product of the
// tensorized vector x with factor a over the listed left slabs and the
// stride window rlo ≤ r < rhi: out[l, j, r] = Σ_i x[l, i, r]·a[i, j].
// Each slab's window is cleared first, so out needs no zeroing outside
// it. Distinct (slab, r-range) pieces write disjoint regions of out,
// which is what makes the parallel split race-free.
func modeVecMulPart(out, x []float64, a *spmat.CSR, n, right int, slabs []int, rlo, rhi int) {
	for _, l := range slabs {
		base := l * n * right
		clearSlab(out, base, n, right, rlo, rhi)
		for i := 0; i < n; i++ {
			cols, vals := a.Row(i)
			if len(cols) == 0 {
				continue
			}
			xi := base + i*right
			for kk, j := range cols {
				v := vals[kk]
				if v == 0 {
					continue
				}
				yj := base + j*right
				xr := x[xi+rlo : xi+rhi]
				yr := out[yj+rlo : yj+rhi]
				for r := range xr {
					yr[r] += v * xr[r]
				}
			}
		}
	}
}

// modeMulVecPart is the matrix–vector twin: out[l, i, r] = Σ_j
// a[i, j]·x[l, j, r], the mode-k product of y = P·x.
func modeMulVecPart(out, x []float64, a *spmat.CSR, n, right int, slabs []int, rlo, rhi int) {
	for _, l := range slabs {
		base := l * n * right
		clearSlab(out, base, n, right, rlo, rhi)
		for i := 0; i < n; i++ {
			cols, vals := a.Row(i)
			if len(cols) == 0 {
				continue
			}
			yi := base + i*right
			for kk, j := range cols {
				v := vals[kk]
				if v == 0 {
					continue
				}
				xj := base + j*right
				xr := x[xj+rlo : xj+rhi]
				yr := out[yi+rlo : yi+rhi]
				for r := range xr {
					yr[r] += v * xr[r]
				}
			}
		}
	}
}

// partFunc is the signature shared by modeVecMulPart and modeMulVecPart.
type partFunc func(out, x []float64, a *spmat.CSR, n, right int, slabs []int, rlo, rhi int)

// pickPart selects the mode-product kernel. Returning the func (rather
// than reassigning a local that goroutine closures later capture) keeps
// the serial path allocation-free: a captured-and-mutated func variable
// would be moved to the heap on every call.
func pickPart(vecMul bool) partFunc {
	if vecMul {
		return modeVecMulPart
	}
	return modeMulVecPart
}

// modeProduct dispatches one mode product over its active left slabs,
// splitting it across the descriptor's worker width: several slabs are
// dealt out in contiguous runs, a single slab splits along the trailing
// stride. Small descriptors and width ≤ 1 stay on the serial path.
func (d *Descriptor) modeProduct(vecMul bool, out, x []float64, a *spmat.CSR, slabs []int, n, right int) {
	part := pickPart(vecMul)
	split := len(slabs)
	if split < 2 {
		split = right
	}
	w := min(d.workers, split)
	if w < 2 || d.dim < spmat.ParallelCutoff {
		part(out, x, a, n, right, slabs, 0, right)
		return
	}
	var wg sync.WaitGroup
	chunk := (split + w - 1) / w
	for lo := 0; lo < split; lo += chunk {
		hi := min(lo+chunk, split)
		run, rlo, rhi := slabs, lo, hi // one slab: split its stride
		if len(slabs) > 1 {
			run, rlo, rhi = slabs[lo:hi], 0, right
		}
		wg.Add(1)
		go func(run []int, rlo, rhi int) {
			defer wg.Done()
			part(out, x, a, n, right, run, rlo, rhi)
		}(run, rlo, rhi)
	}
	wg.Wait()
}

// mul runs the shuffle evaluation of y = x·P (vecMul) or y = P·x into y
// using ws scratch. Each term's mode products visit only the slabs
// activeSlabs kept, and only those are accumulated into y: every skipped
// slab holds exact zeros, so the result is bit-identical to running every
// mode product over the whole tensor.
func (d *Descriptor) mul(vecMul bool, ws *Workspace, y, x []float64) {
	if len(x) != d.dim || len(y) != d.dim {
		panic("kron: multiply dimension mismatch")
	}
	ws.ensure(d.dim)
	clear(y)
	for ti, t := range d.terms {
		slabs := d.matSlabs[ti]
		if vecMul {
			slabs = d.vecSlabs[ti]
		}
		if slabs == nil {
			continue // zero coefficient or a factor without nonzeros
		}
		src := x
		right := d.dim
		for c, f := range t.Factors {
			n := d.sizes[c]
			right /= n
			dst := ws.cur
			if c%2 == 1 {
				dst = ws.next
			}
			d.modeProduct(vecMul, dst, src, f, slabs[c], n, right)
			src = dst
		}
		// The last mode has a unit stride, so its slabs are n-long runs.
		n := d.sizes[len(d.sizes)-1]
		coeff := t.Coeff
		for _, l := range slabs[len(slabs)-1] {
			yl := y[l*n : (l+1)*n]
			for i, v := range src[l*n : (l+1)*n] {
				yl[i] += coeff * v
			}
		}
	}
}

// VecMulWs computes y = x·P with caller-owned scratch: the zero-alloc
// form every solver loop uses. y must have length Dim and not alias x.
func (d *Descriptor) VecMulWs(ws *Workspace, y, x []float64) { d.mul(true, ws, y, x) }

// MulVecWs computes y = P·x with caller-owned scratch.
func (d *Descriptor) MulVecWs(ws *Workspace, y, x []float64) { d.mul(false, ws, y, x) }

// VecMul computes y = x·P where P is the descriptor's implicit matrix.
// y must have length Dim and may not alias x. Scratch comes from an
// internal pool, so repeated calls allocate nothing after warmup;
// solvers that multiply in a tight loop should hold a Workspace and call
// VecMulWs to skip the pool round-trip entirely.
func (d *Descriptor) VecMul(y, x []float64) {
	ws := d.ws.Get().(*Workspace)
	d.mul(true, ws, y, x)
	d.ws.Put(ws)
}

// MulVec computes y = P·x — the column-action the flux measures and the
// restriction operators need. Same scratch discipline as VecMul.
func (d *Descriptor) MulVec(y, x []float64) {
	ws := d.ws.Get().(*Workspace)
	d.mul(false, ws, y, x)
	d.ws.Put(ws)
}

// kronExpand accumulates coeff·(v₁ ⊗ v₂ ⊗ … ⊗ v_C) into out, where the
// outer product is taken outermost-first — the expansion both Diag and
// RowSums reduce to, since both are Kronecker-factorizable per term.
func kronExpand(out []float64, coeff float64, vecs [][]float64) {
	cur := []float64{coeff}
	for _, v := range vecs {
		next := make([]float64, len(cur)*len(v))
		for a, ca := range cur {
			if ca == 0 {
				continue
			}
			base := a * len(v)
			for b, vb := range v {
				next[base+b] = ca * vb
			}
		}
		cur = next
	}
	for i := range out {
		out[i] += cur[i]
	}
}

// Diag returns the implicit matrix's diagonal: per term, the diagonal of
// a Kronecker product is the Kronecker product of the factor diagonals.
// The slice is freshly allocated (call once per solve, as the Jacobi
// splitting does).
func (d *Descriptor) Diag() []float64 {
	out := make([]float64, d.dim)
	vecs := make([][]float64, len(d.sizes))
	for _, t := range d.terms {
		if t.Coeff == 0 {
			continue
		}
		for c, f := range t.Factors {
			vecs[c] = f.Diag()
		}
		kronExpand(out, t.Coeff, vecs)
	}
	return out
}

// RowSums returns the implicit matrix's row sums — the Kronecker product
// of the factor row sums, summed over terms. A stochastic descriptor
// returns the all-ones vector (to rounding), which is how the operator
// backend validates stochasticity without materializing anything.
func (d *Descriptor) RowSums() []float64 {
	out := make([]float64, d.dim)
	vecs := make([][]float64, len(d.sizes))
	for _, t := range d.terms {
		if t.Coeff == 0 {
			continue
		}
		for c, f := range t.Factors {
			vecs[c] = f.RowSums()
		}
		kronExpand(out, t.Coeff, vecs)
	}
	return out
}

// RowIter enumerates single rows of the implicit matrix without
// materializing it, entry by entry; ToCSR assembles the explicit matrix
// from it. Create one per traversal; after the first row, Row performs no
// allocations (the visit closure should likewise be hoisted outside the
// row loop).
// A RowIter is not safe for concurrent use.
type RowIter struct {
	d      *Descriptor
	digits []int
}

// NewRowIter returns a row enumerator for the descriptor.
func (d *Descriptor) NewRowIter() *RowIter {
	return &RowIter{d: d, digits: make([]int, len(d.sizes))}
}

// Row calls visit for every stored entry of row i, as (column, value)
// pairs. Columns may repeat across terms (the implicit matrix entry is
// the sum); callers accumulate.
func (it *RowIter) Row(i int, visit func(col int, v float64)) {
	d := it.d
	if i < 0 || i >= d.dim {
		panic("kron: row index out of range")
	}
	rem := i
	for c := len(d.sizes) - 1; c >= 0; c-- {
		it.digits[c] = rem % d.sizes[c]
		rem /= d.sizes[c]
	}
	for ti := range d.terms {
		t := &d.terms[ti]
		if t.Coeff != 0 {
			it.expand(t, 0, 0, t.Coeff, visit)
		}
	}
}

func (it *RowIter) expand(t *Term, c, col int, prod float64, visit func(col int, v float64)) {
	if c == len(it.d.sizes) {
		visit(col, prod)
		return
	}
	cols, vals := t.Factors[c].Row(it.digits[c])
	n := it.d.sizes[c]
	for k, j := range cols {
		if v := vals[k]; v != 0 {
			it.expand(t, c+1, col*n+j, prod*v, visit)
		}
	}
}

// ToCSR materializes the descriptor as an explicit sparse matrix. Intended
// for tests and small models; the memory cost is the full global nnz.
func (d *Descriptor) ToCSR() *spmat.CSR {
	tr := spmat.NewTriplet(d.dim, d.dim)
	it := d.NewRowIter()
	for i := 0; i < d.dim; i++ {
		it.Row(i, func(j int, v float64) { tr.Add(i, j, v) })
	}
	return tr.ToCSR()
}

// Kron returns the explicit Kronecker product A ⊗ B.
func Kron(a, b *spmat.CSR) *spmat.CSR {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	tr := spmat.NewTriplet(ar*br, ac*bc)
	tr.Reserve(a.NNZ() * b.NNZ())
	for i := 0; i < ar; i++ {
		acols, avals := a.Row(i)
		for k, aj := range acols {
			av := avals[k]
			if av == 0 {
				continue
			}
			for p := 0; p < br; p++ {
				bcols, bvals := b.Row(p)
				for q, bj := range bcols {
					if bvals[q] == 0 {
						continue
					}
					tr.Add(i*br+p, aj*bc+bj, av*bvals[q])
				}
			}
		}
	}
	return tr.ToCSR()
}
