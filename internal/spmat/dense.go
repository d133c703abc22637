package spmat

import (
	"errors"
	"fmt"
	"math"
)

// Dense is a row-major dense matrix used for small systems: the coarsest
// multigrid level, fundamental-matrix computations, and reference checks
// in tests.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zeroed r×c dense matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic("spmat: negative dimension")
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// Dims returns the matrix dimensions.
func (d *Dense) Dims() (r, c int) { return d.rows, d.cols }

// At returns the entry at (i, j).
func (d *Dense) At(i, j int) float64 { return d.data[i*d.cols+j] }

// Set stores v at (i, j).
func (d *Dense) Set(i, j int, v float64) { d.data[i*d.cols+j] = v }

// Add accumulates v at (i, j).
func (d *Dense) Add(i, j int, v float64) { d.data[i*d.cols+j] += v }

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	out := NewDense(d.rows, d.cols)
	copy(out.data, d.data)
	return out
}

// Row returns row i; the slice aliases internal storage.
func (d *Dense) Row(i int) []float64 { return d.data[i*d.cols : (i+1)*d.cols] }

// MulVec computes y = D·x.
func (d *Dense) MulVec(y, x []float64) {
	if len(x) != d.cols || len(y) != d.rows {
		panic("spmat: dense MulVec dimension mismatch")
	}
	for i := 0; i < d.rows; i++ {
		row := d.Row(i)
		sum := 0.0
		for j, v := range row {
			sum += v * x[j]
		}
		y[i] = sum
	}
}

// VecMul computes y = x·D.
func (d *Dense) VecMul(y, x []float64) {
	if len(x) != d.rows || len(y) != d.cols {
		panic("spmat: dense VecMul dimension mismatch")
	}
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < d.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := d.Row(i)
		for j, v := range row {
			y[j] += xi * v
		}
	}
}

// LU holds an LU factorization with partial pivoting, PA = LU.
type LU struct {
	n   int
	lu  *Dense
	piv []int
}

// Factorize computes the LU factorization of a square matrix. It returns an
// error if the matrix is singular to working precision.
func Factorize(a *Dense) (*LU, error) {
	if a.rows != a.cols {
		return nil, errors.New("spmat: LU requires a square matrix")
	}
	n := a.rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivoting.
		p, maxAbs := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > maxAbs {
				p, maxAbs = i, a
			}
		}
		if maxAbs == 0 {
			return nil, fmt.Errorf("spmat: singular matrix at pivot %d", k)
		}
		if p != k {
			ri, rk := lu.Row(p), lu.Row(k)
			for j := 0; j < n; j++ {
				ri[j], rk[j] = rk[j], ri[j]
			}
			piv[p], piv[k] = piv[k], piv[p]
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			ri, rk := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return &LU{n: n, lu: lu, piv: piv}, nil
}

// Solve solves A·x = b, overwriting and returning x (a fresh slice).
func (f *LU) Solve(b []float64) []float64 {
	if len(b) != f.n {
		panic("spmat: LU solve dimension mismatch")
	}
	x := make([]float64, f.n)
	for i, p := range f.piv {
		x[i] = b[p]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < f.n; i++ {
		row := f.lu.Row(i)
		sum := x[i]
		for j := 0; j < i; j++ {
			sum -= row[j] * x[j]
		}
		x[i] = sum
	}
	// Back substitution.
	for i := f.n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		sum := x[i]
		for j := i + 1; j < f.n; j++ {
			sum -= row[j] * x[j]
		}
		x[i] = sum / row[i]
	}
	return x
}

// StationaryGTH computes the stationary distribution of an irreducible
// row-stochastic matrix P using the Grassmann–Taksar–Heyman algorithm.
// GTH is subtraction-free (it never forms 1−p differences that cancel), so
// it is numerically reliable even when the stationary vector spans many
// orders of magnitude — exactly the regime of BER ≈ 1e−14 tail analysis.
// The input matrix is not modified.
func StationaryGTH(p *Dense) ([]float64, error) {
	if p.rows != p.cols {
		return nil, errors.New("spmat: GTH requires a square matrix")
	}
	n := p.rows
	if n == 0 {
		return nil, errors.New("spmat: GTH on empty matrix")
	}
	pi := make([]float64, n)
	if err := gthInPlace(p.Clone(), pi); err != nil {
		return nil, err
	}
	return pi, nil
}

// gthInPlace runs the GTH elimination and back-substitution, destroying a
// and writing the normalized stationary vector into pi (len a.rows).
func gthInPlace(a *Dense, pi []float64) error {
	n := a.rows
	// Elimination sweep: state n-1, n-2, ..., 1 are censored in turn.
	for k := n - 1; k > 0; k-- {
		row := a.Row(k)
		s := 0.0
		for j := 0; j < k; j++ {
			s += row[j]
		}
		if s <= 0 {
			return fmt.Errorf("spmat: GTH: state %d unreachable backwards (reducible chain?)", k)
		}
		for i := 0; i < k; i++ {
			aik := a.At(i, k) / s
			if aik == 0 {
				continue
			}
			ri := a.Row(i)
			for j := 0; j < k; j++ {
				ri[j] += aik * row[j]
			}
			a.Set(i, k, aik)
		}
		// Store the normalized row for back-substitution.
		for j := 0; j < k; j++ {
			row[j] /= s
		}
	}
	// Back substitution: unnormalized stationary measure.
	pi[0] = 1
	for k := 1; k < n; k++ {
		s := 0.0
		for i := 0; i < k; i++ {
			s += pi[i] * a.At(i, k)
		}
		pi[k] = s
	}
	total := 0.0
	for _, v := range pi {
		total += v
	}
	if total == 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		return errors.New("spmat: GTH produced a degenerate measure")
	}
	for i := range pi {
		pi[i] /= total
	}
	return nil
}

// StationaryGTHCSR is a convenience wrapper that densifies a (small) CSR
// matrix and runs GTH on it.
func StationaryGTHCSR(p *CSR) ([]float64, error) {
	return StationaryGTH(p.ToDense())
}

// GTHWorkspace reuses the dense elimination matrix and result vector
// across repeated GTH solves — the multigrid coarsest level runs one per
// cycle on a chain of fixed size, which without reuse dominates the
// cycle's allocation volume. The zero value is ready to use.
type GTHWorkspace struct {
	a  *Dense
	pi []float64
}

// StationaryT densifies the TPM whose transpose is pt into the workspace
// and solves it with GTH. The multigrid hierarchy holds its coarse levels
// only as transposes. The returned vector aliases the workspace and is
// valid until the next call; callers that keep it must copy it out.
func (w *GTHWorkspace) StationaryT(pt *CSR) ([]float64, error) {
	n, m := pt.Dims()
	if n != m {
		return nil, errors.New("spmat: GTH requires a square matrix")
	}
	if n == 0 {
		return nil, errors.New("spmat: GTH on empty matrix")
	}
	if w.a == nil || w.a.rows != n {
		w.a = NewDense(n, n)
		w.pi = make([]float64, n)
	} else {
		clear(w.a.data)
	}
	for c := 0; c < n; c++ {
		for k := pt.rowPtr[c]; k < pt.rowPtr[c+1]; k++ {
			w.a.data[pt.colIdx[k]*n+c] = pt.val[k]
		}
	}
	if err := gthInPlace(w.a, w.pi); err != nil {
		return nil, err
	}
	return w.pi, nil
}
