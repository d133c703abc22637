package markov

import (
	"context"
	"errors"
	"fmt"
	"math"

	"cdrstoch/internal/obs"
)

// Krylov-subspace stationary solver. The paper lists Krylov methods among
// the candidates that aggregation/disaggregation can accelerate; this file
// provides the baseline itself: restarted GMRES on the nonsingular
// formulation of the stationary equations, where the homogeneous system
// (I − Pᵀ)x = 0 has its first equation replaced by the normalization
// Σ_i x_i = 1 (paper equations (6)–(7)).

// GMRESOptions configures the restarted GMRES solve.
type GMRESOptions struct {
	// Tol is the convergence threshold on ‖πP − π‖₁ of the normalized
	// iterate. Default 1e-12.
	Tol float64
	// Restart is the Krylov subspace dimension m of GMRES(m). Default 30.
	Restart int
	// MaxIter bounds the total number of matrix–vector products.
	// Default 100000.
	MaxIter int
	// X0 is the initial distribution; uniform when nil.
	X0 []float64
	// Ctx, when non-nil, is checked after every restart: a canceled or
	// expired context stops the solve with a partial-progress error
	// wrapping ctx.Err(). Its run handle (obs.Run), if any, receives a
	// span around the solve and one "iter" event per restart (Iter =
	// cumulative matrix–vector products) with the stationarity defect of
	// the normalized iterate, is charged the products, restarts and
	// kernel work, and fires the gmres.restart fault point. Nil never
	// cancels.
	Ctx context.Context
	// Workers is the parallel team width for the sparse products (see
	// Options.Workers): 0 = GOMAXPROCS, 1 = serial. Ignored when Ws
	// carries a live Pool.
	Workers int
	// Ws supplies reusable solve buffers and the worker team; nil uses a
	// private workspace.
	Ws *Workspace
}

func (o GMRESOptions) withDefaults() GMRESOptions {
	if o.Tol <= 0 {
		o.Tol = 1e-12
	}
	if o.Restart <= 0 {
		o.Restart = 30
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 100000
	}
	return o
}

// StationaryGMRES computes the stationary distribution with restarted
// GMRES. The operator is
//
//	(A·x)_i = x_i − (x·P)_i   for i ≥ 1,
//	(A·x)_0 = Σ_i x_i,
//
// and the right-hand side e₀ encodes the normalization, so A is
// nonsingular exactly when the chain has a unique stationary vector.
func (c *Chain) StationaryGMRES(opt GMRESOptions) (Result, error) {
	opt = opt.withDefaults()
	n := c.N()
	if n == 0 {
		return Result{}, errors.New("markov: empty chain")
	}
	ws := opt.Ws
	if ws == nil {
		ws = &Workspace{}
	}
	ws.ensure(n)
	pool := ws.team(opt.Workers)
	apply := func(dst, x []float64) {
		c.vecMul(pool, dst, x) // dst = x·P
		s := 0.0
		for i := range x {
			s += x[i]
			dst[i] = x[i] - dst[i]
		}
		dst[0] = s
	}
	b := make([]float64, n)
	b[0] = 1

	x := make([]float64, n)
	if opt.X0 != nil {
		if len(opt.X0) != n {
			return Result{}, fmt.Errorf("markov: X0 length %d, want %d", len(opt.X0), n)
		}
		copy(x, opt.X0)
	} else {
		for i := range x {
			x[i] = 1 / float64(n)
		}
	}

	m := opt.Restart
	// Arnoldi basis and Hessenberg factors.
	basis := make([][]float64, m+1)
	for i := range basis {
		basis[i] = make([]float64, n)
	}
	h := make([][]float64, m+1)
	for i := range h {
		h[i] = make([]float64, m)
	}
	cs := make([]float64, m)
	sn := make([]float64, m)
	g := make([]float64, m+1)
	w := make([]float64, n)
	// Per-restart buffers, hoisted so restarts reuse them: the projected
	// triangular solve and the normalized-iterate copy.
	ybuf := make([]float64, m)
	xn := make([]float64, n)
	res := Result{}

	matvecs := 0
	probe := obs.Begin(opt.Ctx, "gmres", obs.Restarts, "gmres.restart", pool)
	defer probe.End(obs.Work{})
	stop := func(err error) error {
		return fmt.Errorf("markov: gmres solve stopped after %d matvecs (residual %.3e): %w",
			matvecs, res.Residual, err)
	}
	for matvecs < opt.MaxIter {
		// r = b − A·x
		apply(w, x)
		matvecs++
		beta := 0.0
		for i := range w {
			w[i] = b[i] - w[i]
			beta += w[i] * w[i]
		}
		beta = math.Sqrt(beta)
		if beta <= opt.Tol*1e-3 {
			// The current iterate already solves the system (possible when
			// x0 is the stationary vector); finalize it.
			sum := 0.0
			for _, v := range x {
				sum += v
			}
			if sum <= 0 {
				return Result{}, errors.New("markov: GMRES iterate lost mass")
			}
			for i := range x {
				x[i] /= sum
			}
			res.Iterations = matvecs
			res.Residual = c.residualInto(pool, ws.r, x)
			res.Pi = x
			if err := probe.Iter(matvecs, res.Residual); err != nil {
				return res, stop(err)
			}
			res.Converged = res.Residual <= opt.Tol
			return res, nil
		}
		inv := 1 / beta
		for i := range w {
			basis[0][i] = w[i] * inv
		}
		for i := range g {
			g[i] = 0
		}
		g[0] = beta

		k := 0
		for ; k < m && matvecs < opt.MaxIter; k++ {
			apply(w, basis[k])
			matvecs++
			// Modified Gram–Schmidt.
			for j := 0; j <= k; j++ {
				dot := 0.0
				for i := range w {
					dot += w[i] * basis[j][i]
				}
				h[j][k] = dot
				for i := range w {
					w[i] -= dot * basis[j][i]
				}
			}
			norm := 0.0
			for i := range w {
				norm += w[i] * w[i]
			}
			norm = math.Sqrt(norm)
			h[k+1][k] = norm
			if norm > 0 {
				inv := 1 / norm
				for i := range w {
					basis[k+1][i] = w[i] * inv
				}
			}
			// Apply accumulated Givens rotations to the new column.
			for j := 0; j < k; j++ {
				t := cs[j]*h[j][k] + sn[j]*h[j+1][k]
				h[j+1][k] = -sn[j]*h[j][k] + cs[j]*h[j+1][k]
				h[j][k] = t
			}
			denom := math.Hypot(h[k][k], h[k+1][k])
			if denom == 0 {
				k++
				break
			}
			cs[k] = h[k][k] / denom
			sn[k] = h[k+1][k] / denom
			h[k][k] = denom
			h[k+1][k] = 0
			g[k+1] = -sn[k] * g[k]
			g[k] = cs[k] * g[k]
			if math.Abs(g[k+1]) < opt.Tol*1e-3 {
				k++
				break
			}
		}
		// Back-substitute y from the k×k triangular system and update x.
		y := ybuf[:k]
		for i := k - 1; i >= 0; i-- {
			sum := g[i]
			for j := i + 1; j < k; j++ {
				sum -= h[i][j] * y[j]
			}
			if h[i][i] == 0 {
				return Result{}, errors.New("markov: GMRES breakdown (reducible chain?)")
			}
			y[i] = sum / h[i][i]
		}
		for j := 0; j < k; j++ {
			for i := range x {
				x[i] += y[j] * basis[j][i]
			}
		}

		// Normalize and measure the stationarity defect.
		copy(xn, x)
		sum := 0.0
		for _, v := range xn {
			sum += v
		}
		if sum <= 0 || math.IsNaN(sum) {
			return Result{}, errors.New("markov: GMRES iterate lost mass")
		}
		for i := range xn {
			xn[i] /= sum
		}
		res.Iterations = matvecs
		res.Residual = c.residualInto(pool, ws.r, xn)
		if err := probe.Iter(matvecs, res.Residual); err != nil {
			res.Pi = x
			return res, stop(err)
		}
		if res.Residual <= opt.Tol {
			res.Converged = true
			// Clip the tiny negative entries GMRES can leave in deep
			// tails, then renormalize.
			for i := range xn {
				if xn[i] < 0 {
					xn[i] = 0
				}
			}
			total := 0.0
			for _, v := range xn {
				total += v
			}
			for i := range xn {
				xn[i] /= total
			}
			res.Pi = xn
			return res, nil
		}
	}
	// Not converged: return the best normalized iterate.
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	if sum > 0 {
		for i := range x {
			x[i] /= sum
		}
	}
	res.Pi = x
	return res, nil
}
