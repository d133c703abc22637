package markov

import (
	"errors"

	"cdrstoch/internal/spmat"
)

// The group inverse of A = I − P for an ergodic chain with stationary
// row vector π is A# = (I − P + 1π)⁻¹ − 1π. It solves Poisson's equation:
// for any state function f, g = A#·f satisfies (I − P)g = f − (πf)·1 and
// πg = 0. With f the per-state error probabilities, g carries the residual
// of an approximate π to the error of its BER. Dense O(n³) computation;
// intended for chains up to a few thousand states.

// GroupInverse returns A# = (I − P + 1π)⁻¹ − 1π as a dense matrix,
// given the chain's stationary vector π.
func (c *Chain) GroupInverse(pi []float64) (*spmat.Dense, error) {
	if c.p == nil {
		return nil, errors.New("markov: group inverse requires an explicit CSR backend")
	}
	n := c.N()
	if len(pi) != n {
		return nil, errors.New("markov: stationary vector length mismatch")
	}
	// Z = (I − P + 1π)⁻¹ (the fundamental matrix of Kemeny & Snell, up to
	// the 1π shift).
	a := spmat.NewDense(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
		cols, vals := c.p.Row(i)
		for k, j := range cols {
			a.Add(i, j, -vals[k])
		}
		for j := 0; j < n; j++ {
			a.Add(i, j, pi[j])
		}
	}
	lu, err := spmat.Factorize(a)
	if err != nil {
		return nil, errors.New("markov: singular fundamental system (non-ergodic chain?)")
	}
	z := spmat.NewDense(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col := lu.Solve(e)
		for i := 0; i < n; i++ {
			z.Set(i, j, col[i])
		}
	}
	// A# = Z − 1π.
	for i := 0; i < n; i++ {
		row := z.Row(i)
		for j := 0; j < n; j++ {
			row[j] -= pi[j]
		}
	}
	return z, nil
}
