package passage

import (
	"context"
	"errors"
	"fmt"
	"math"

	"cdrstoch/internal/obs"
	"cdrstoch/internal/spmat"
)

// Quasi-stationary analysis: conditioned on never having entered the
// target (slip) set, the loop state converges to the quasi-stationary
// distribution ν — the left Perron eigenvector of the substochastic
// matrix Q (the TPM restricted to non-target states):
//
//	ν·Q = λ·ν,  λ < 1,
//
// and the survival probability decays geometrically, P(T > k) ≈ C·λᵏ.
// 1−λ is the asymptotic slip hazard per bit, the sharp version of the
// stationary-flux estimate; ν is the ensemble a long-surviving receiver
// actually operates in (e.g. for the BER of links that are reset on
// slip). The hazard is computed as the mass ν·P sends into the target,
// which equals 1−λ but stays accurate where λ rounds to 1.

// QuasiStationaryResult reports the quasi-stationary solve.
type QuasiStationaryResult struct {
	// Nu is the quasi-stationary distribution over ALL states (zero on
	// the target set), normalized to unit mass.
	Nu []float64
	// Lambda is the Perron eigenvalue of Q: the per-step survival
	// probability of the conditioned process.
	Lambda float64
	// HazardPerStep is the asymptotic slip rate, 1 − Lambda in exact
	// arithmetic. It is computed as Σ_i ν_i·Σ_{j∈target} P_ij, the mass
	// ν·P sends into the target, a sum of non-negative terms: 1 − Lambda
	// cancels to rounding noise, of either sign, once slips are rarer than
	// about 1e−16 per step.
	HazardPerStep float64
	// Iterations is the number of power steps performed.
	Iterations int
	// Converged reports whether the eigenvector residual met tol.
	Converged bool
}

// QSOptions configures the quasi-stationary power iteration.
type QSOptions struct {
	// Tol is the 1-norm eigenvector residual threshold. Default 1e-12.
	Tol float64
	// MaxIter bounds the power steps. Default 100000.
	MaxIter int
	// Workers is the parallel team width for the x·Q products
	// (0 = GOMAXPROCS, 1 = serial; see spmat.Pool). Ignored when Pool
	// is set.
	Workers int
	// Pool optionally supplies an externally owned worker team; it is
	// never closed by the solver.
	Pool *spmat.Pool
	// Ctx, when non-nil, is checked after every sweep: a canceled or
	// expired context stops the solve with a partial-progress error
	// wrapping ctx.Err(). Its run handle (obs.Run), if any, receives a
	// span around the solve and one "iter" event per sweep with the
	// eigenvector residual, and is charged the sweeps and kernel work.
	// Nil never cancels.
	Ctx context.Context
}

// QuasiStationary computes (ν, λ) by power iteration on the substochastic
// restriction of p to the complement of target, renormalizing each sweep
// (the normalization factor converges to λ).
func QuasiStationary(p *spmat.CSR, target []bool, tol float64, maxIter int) (QuasiStationaryResult, error) {
	return QuasiStationaryOpt(p, target, QSOptions{Tol: tol, MaxIter: maxIter})
}

// QuasiStationaryOpt is QuasiStationary with the full option set: it runs
// the per-sweep x·Q product on a parallel worker team and allocates only
// its two iterate buffers for the whole solve.
func QuasiStationaryOpt(p *spmat.CSR, target []bool, opt QSOptions) (QuasiStationaryResult, error) {
	n, m := p.Dims()
	if n != m {
		return QuasiStationaryResult{}, errors.New("passage: TPM must be square")
	}
	if len(target) != n {
		return QuasiStationaryResult{}, errors.New("passage: target length mismatch")
	}
	tol, maxIter := opt.Tol, opt.MaxIter
	if tol <= 0 {
		tol = 1e-12
	}
	if maxIter <= 0 {
		maxIter = 100000
	}
	pool := opt.Pool
	if pool == nil {
		pool = spmat.NewPool(opt.Workers)
	}
	inside := 0
	for _, b := range target {
		if b {
			inside++
		}
	}
	if inside == 0 {
		return QuasiStationaryResult{}, errors.New("passage: empty target set")
	}
	if inside == n {
		return QuasiStationaryResult{}, errors.New("passage: no surviving states")
	}

	x := make([]float64, n)
	for i := range x {
		if !target[i] {
			x[i] = 1
		}
	}
	norm := 0.0
	for _, v := range x {
		norm += v
	}
	for i := range x {
		x[i] /= norm
	}
	y := make([]float64, n)
	res := QuasiStationaryResult{}
	probe := obs.Begin(opt.Ctx, "quasi-stationary", obs.Sweeps, "", pool)
	defer probe.End(obs.Work{})
	for it := 1; it <= maxIter; it++ {
		// y = x·Q: propagate through P, then zero the target states.
		pool.VecMul(p, y, x)
		lambda := 0.0
		for i := range y {
			if target[i] {
				y[i] = 0
			} else {
				lambda += y[i]
			}
		}
		if lambda <= 0 {
			return QuasiStationaryResult{}, errors.New("passage: survival mass vanished (target absorbs immediately)")
		}
		resid := 0.0
		inv := 1 / lambda
		for i := range y {
			y[i] *= inv
			resid += math.Abs(y[i] - x[i])
		}
		x, y = y, x
		res.Iterations = it
		res.Lambda = lambda
		if err := probe.Iter(it, resid); err != nil {
			res.Nu = x
			res.HazardPerStep = leak(p, target, x)
			return res, fmt.Errorf("passage: quasi-stationary solve stopped after %d sweeps: %w",
				res.Iterations, err)
		}
		if resid <= tol {
			res.Converged = true
			break
		}
	}
	res.Nu = x
	res.HazardPerStep = leak(p, target, x)
	return res, nil
}

// leak returns the mass nu·p sends into the target set.
func leak(p *spmat.CSR, target []bool, nu []float64) float64 {
	h := 0.0
	for i, v := range nu {
		if v == 0 {
			continue
		}
		cols, vals := p.Row(i)
		for k, j := range cols {
			if target[j] {
				h += v * vals[k]
			}
		}
	}
	return h
}
