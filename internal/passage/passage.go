// Package passage computes first-passage quantities of Markov chains:
// expected hitting times of a target set (the paper's "mean transition
// times between certain sets of MC states", which give the average time
// between cycle slips), and the stationary-flux (Kac) estimate of mean
// time between entries into a rare set — the numerically robust route
// when the mean time is of the order 1/BER and fixed-point iterations
// would need that many sweeps.
package passage

import (
	"context"
	"errors"
	"fmt"
	"math"

	"cdrstoch/internal/obs"
	"cdrstoch/internal/spmat"
)

// HittingTimesDense solves (I − Q)·t = 1 exactly with dense LU, where Q is
// the TPM restricted to non-target states. t[i] is the expected number of
// steps to first reach the target from state i; target states report 0.
// Intended for chains up to a few thousand states.
func HittingTimesDense(p *spmat.CSR, target []bool) ([]float64, error) {
	n, m := p.Dims()
	if n != m {
		return nil, errors.New("passage: TPM must be square")
	}
	if len(target) != n {
		return nil, errors.New("passage: target length mismatch")
	}
	// Compact index of non-target states.
	idx := make([]int, n)
	nt := 0
	for i := range target {
		if target[i] {
			idx[i] = -1
		} else {
			idx[i] = nt
			nt++
		}
	}
	if nt == 0 {
		return make([]float64, n), nil
	}
	if nt == n {
		return nil, errors.New("passage: empty target set")
	}
	a := spmat.NewDense(nt, nt)
	for i := 0; i < n; i++ {
		ri := idx[i]
		if ri < 0 {
			continue
		}
		a.Set(ri, ri, 1)
		cols, vals := p.Row(i)
		for k, j := range cols {
			if rj := idx[j]; rj >= 0 {
				a.Add(ri, rj, -vals[k])
			}
		}
	}
	lu, err := spmat.Factorize(a)
	if err != nil {
		return nil, fmt.Errorf("passage: target unreachable from some state: %w", err)
	}
	ones := make([]float64, nt)
	for i := range ones {
		ones[i] = 1
	}
	tc := lu.Solve(ones)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		if ri := idx[i]; ri >= 0 {
			out[i] = tc[ri]
		}
	}
	return out, nil
}

// IterOptions configures the iterative hitting-time solver.
type IterOptions struct {
	// Tol is the convergence threshold on the max relative update.
	// Default 1e-10.
	Tol float64
	// MaxIter bounds the Gauss–Seidel sweeps. Default 1e6. The fixed-point
	// contraction rate is ≈ 1 − 1/E[T], so rare-event sets need either
	// the dense solver or the flux estimate instead.
	MaxIter int
	// Ctx, when non-nil, is checked after every sweep: a canceled or
	// expired context stops the solve with a partial-progress error
	// wrapping ctx.Err(). Its run handle (obs.Run), if any, receives a
	// span around the solve and one "iter" event per sweep whose
	// Residual field carries the max relative update, and is charged the
	// sweeps. Nil never cancels.
	Ctx context.Context
}

func (o IterOptions) withDefaults() IterOptions {
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 1000000
	}
	return o
}

// HittingTimesIterative solves t = 1 + Q·t with Gauss–Seidel sweeps.
// It reports whether the iteration converged.
func HittingTimesIterative(p *spmat.CSR, target []bool, opt IterOptions) ([]float64, bool, error) {
	n, m := p.Dims()
	if n != m {
		return nil, false, errors.New("passage: TPM must be square")
	}
	if len(target) != n {
		return nil, false, errors.New("passage: target length mismatch")
	}
	opt = opt.withDefaults()
	any := false
	for _, b := range target {
		if b {
			any = true
			break
		}
	}
	if !any {
		return nil, false, errors.New("passage: empty target set")
	}
	t := make([]float64, n)
	probe := obs.Begin(opt.Ctx, "hitting-gs", obs.Sweeps, "", nil)
	defer probe.End(obs.Work{})
	for it := 0; it < opt.MaxIter; it++ {
		maxRel := 0.0
		for i := 0; i < n; i++ {
			if target[i] {
				continue
			}
			cols, vals := p.Row(i)
			sum := 1.0
			var selfP float64
			for k, j := range cols {
				if target[j] {
					continue
				}
				if j == i {
					selfP = vals[k]
					continue
				}
				sum += vals[k] * t[j]
			}
			var next float64
			if selfP < 1 {
				next = sum / (1 - selfP)
			} else {
				return nil, false, fmt.Errorf("passage: state %d cannot leave itself", i)
			}
			den := math.Abs(next)
			if den < 1 {
				den = 1
			}
			if rel := math.Abs(next-t[i]) / den; rel > maxRel {
				maxRel = rel
			}
			t[i] = next
		}
		if err := probe.Iter(it+1, maxRel); err != nil {
			return t, false, fmt.Errorf("passage: hitting-time solve stopped after %d sweeps: %w", it+1, err)
		}
		if maxRel <= opt.Tol {
			return t, true, nil
		}
	}
	return t, false, nil
}

// MeanFirstPassage returns Σ_i from[i]·t[i] given hitting times t and a
// start distribution (normalized internally over its positive mass).
func MeanFirstPassage(from, times []float64) (float64, error) {
	if len(from) != len(times) {
		return 0, errors.New("passage: length mismatch")
	}
	mass, acc := 0.0, 0.0
	for i, f := range from {
		if f < 0 {
			return 0, errors.New("passage: negative start mass")
		}
		mass += f
		acc += f * times[i]
	}
	if mass <= 0 {
		return 0, errors.New("passage: zero start mass")
	}
	return acc / mass, nil
}

// FluxResult reports the stationary-flux analysis of a rare set.
type FluxResult struct {
	// Flux is the stationary probability per step of entering the target
	// from outside: Σ_{i∉T} π_i Σ_{j∈T} P_ij.
	Flux float64
	// OutsideMass is Σ_{i∉T} π_i.
	OutsideMass float64
	// MeanTimeBetween is the mean number of steps between entries into the
	// target while operating outside it: OutsideMass / Flux (conditional
	// renewal estimate). +Inf when the flux vanishes.
	MeanTimeBetween float64
	// TargetMass is π(T); by Kac's formula the mean return time to T is
	// 1/TargetMass.
	TargetMass float64
}

// Transitions is the part of a transition backend the flux measure
// needs: its dimensions and the column action y = P·x. Both *spmat.CSR
// and the matrix-free kron.Descriptor satisfy it.
type Transitions interface {
	Dims() (r, c int)
	MulVec(y, x []float64)
}

// SlipFlux computes the stationary entry flux into a target set, the
// paper's cycle-slip-rate measure in its numerically robust form: it needs
// only the stationary vector (available from the multigrid solve) and one
// product with the matrix, and remains accurate when the mean time between
// slips is astronomically large. The per-row target mass Σ_{j∈T} P_ij is
// a single column action on the target's indicator vector, so the flux of
// a matrix-free chain costs one shuffle product instead of a materialized
// matrix.
func SlipFlux(p Transitions, pi []float64, target []bool) (FluxResult, error) {
	n, m := p.Dims()
	if n != m || len(pi) != n || len(target) != n {
		return FluxResult{}, errors.New("passage: dimension mismatch")
	}
	ind := make([]float64, n)
	for i, t := range target {
		if t {
			ind[i] = 1
		}
	}
	rowMass := make([]float64, n)
	p.MulVec(rowMass, ind)
	var res FluxResult
	for i := 0; i < n; i++ {
		if target[i] {
			res.TargetMass += pi[i]
			continue
		}
		res.OutsideMass += pi[i]
		res.Flux += pi[i] * rowMass[i]
	}
	if res.Flux > 0 {
		res.MeanTimeBetween = res.OutsideMass / res.Flux
	} else {
		res.MeanTimeBetween = math.Inf(1)
	}
	return res, nil
}
