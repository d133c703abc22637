package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"cdrstoch/internal/dist"
	"cdrstoch/internal/lump"
	"cdrstoch/internal/markov"
	"cdrstoch/internal/multigrid"
	"cdrstoch/internal/passage"
)

// ErrUnconverged marks a solve that exhausted its cycle budget without
// reaching tolerance. Callers (the HTTP service in particular) match it
// with errors.Is to trigger postmortem handling — flight-recorder dumps
// attached to the error response — distinct from plain input errors.
var ErrUnconverged = errors.New("did not converge")

// SolveOptions configures the stationary analysis.
type SolveOptions struct {
	// Multigrid configures the multilevel solver. The zero value selects
	// robust defaults (multigrid.ColdDefaults: W-cycles doubled on the
	// phase-pair levels only, 2+2 Gauss–Seidel smoothing, 1e−12). SolveKron
	// keeps the smoothing and tolerance but not the W-cycle: below its
	// implicit level every level recurses once (multigrid.NewKron).
	Multigrid multigrid.Config
	// MinSegLen stops the phase-pair coarsening once segments shrink to
	// this many phase points. Default 4.
	MinSegLen int
}

// withDefaults fills MinSegLen; the multigrid defaults depend on the
// hierarchy and are applied where it is built (multigrid.ColdDefaults).
func (o SolveOptions) withDefaults() SolveOptions {
	if o.MinSegLen <= 0 {
		o.MinSegLen = 4
	}
	return o
}

// Analysis bundles the stationary solution and the performance measures
// the paper reports for each figure panel.
type Analysis struct {
	// Pi is the stationary distribution over the product state space.
	Pi []float64
	// BER is the stationary probability of a detection error,
	// P(|Φ + n_w| > Threshold).
	BER float64
	// Multigrid reports the solver statistics (cycles, residual, levels).
	Multigrid multigrid.Result
	// SolveTime is the wall-clock stationary-solve duration (the paper's
	// "Solvetime" annotation).
	SolveTime time.Duration
}

// Hierarchy builds the multigrid partition chain for this model. First,
// pairs of consecutive phase grid points are lumped within every
// (data, counter) segment — the paper's coarsening strategy — level after
// level, until segments reach minSegLen points. Then, to keep the coarsest
// problem small even for long loop-filter counters, coarsening continues
// across the counter dimension (adjacent counter states merge
// elementwise) until at most three counter states remain per data state.
func (m *Model) Hierarchy(minSegLen int) ([]*lump.Partition, error) {
	parts, err := multigrid.BuildPairHierarchy(m.M, m.D*m.C, minSegLen)
	if err != nil {
		return nil, err
	}
	_, segLen := multigrid.PairLevelCount(m.M, minSegLen)
	for counters := m.C; counters > 3; counters = (counters + 1) / 2 {
		part, err := lump.PairSegmentsElementwise(segLen, counters, m.D)
		if err != nil {
			return nil, err
		}
		parts = append(parts, part)
	}
	return parts, nil
}

// Solve computes the stationary distribution with the multilevel solver
// and derives the standard performance measures.
func (m *Model) Solve(opt SolveOptions) (*Analysis, error) {
	return m.solve(opt.withDefaults(), func(parts []*lump.Partition, cfg multigrid.Config) (*multigrid.Solver, error) {
		return multigrid.New(m.P, parts, cfg)
	})
}

// SolveKron computes the stationary distribution without materializing
// the TPM: the chain's Kronecker descriptor (the model's Desc, built on
// demand for explicit models) is level 0 of the multigrid solver
// (multigrid.NewKron). The hierarchy and smoothing are Solve's; the
// implicit level folds the leading phase-pair partitions into one
// restriction onto an explicit coarse matrix, enters it as often as the
// fine residual needs, and the remaining pair levels and the counter
// merges run below it once per visit, a V-cycle where Solve W-cycles the
// pair levels. Memory stays at a few state-sized vectors plus the coarse
// hierarchy; the product matrix never exists.
func (m *Model) SolveKron(opt SolveOptions) (*Analysis, error) {
	opt = opt.withDefaults()
	d := m.Desc
	if d == nil {
		var err error
		d, err = m.BuildDescriptor()
		if err != nil {
			return nil, err
		}
		m.Desc = d
	}
	// The implicit restriction folds at most two phase pairings: deeper
	// folds skip smoothing levels and take more cycles, while two keep
	// the explicit coarse matrix at ~1/16 of the product nnz.
	const maxImplicitAgg = 2
	fold, _ := multigrid.PairLevelCount(m.M, opt.MinSegLen)
	if fold == 0 {
		// Phase grid already at or below MinSegLen: the implicit level still
		// needs one phase pairing to produce its explicit coarse level.
		if m.M < 2 {
			return nil, errors.New("core: phase grid too small for the matrix-free solver")
		}
		opt.MinSegLen = (m.M + 1) / 2
		fold = 1
	}
	fold = min(fold, maxImplicitAgg)
	workers := opt.Multigrid.Workers
	if workers == 0 {
		if opt.Multigrid.Pool != nil {
			workers = opt.Multigrid.Pool.Workers()
		} else {
			workers = runtime.GOMAXPROCS(0)
		}
	}
	d.SetWorkers(workers)
	return m.solve(opt, func(parts []*lump.Partition, cfg multigrid.Config) (*multigrid.Solver, error) {
		return multigrid.NewKron(d, fold, parts, cfg)
	})
}

// solve is the body Solve and SolveKron share: the model's hierarchy and
// cold schedule go to newSolver, and the converged solve becomes an
// Analysis.
func (m *Model) solve(opt SolveOptions, newSolver func([]*lump.Partition, multigrid.Config) (*multigrid.Solver, error)) (*Analysis, error) {
	parts, err := m.Hierarchy(opt.MinSegLen)
	if err != nil {
		return nil, err
	}
	solver, err := newSolver(parts, multigrid.ColdDefaults(opt.Multigrid, m.M, opt.MinSegLen))
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := solver.Solve(nil)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	if !res.Converged {
		return nil, fmt.Errorf("core: multigrid %w: %v", ErrUnconverged, res)
	}
	return &Analysis{
		Pi:        res.Pi,
		BER:       m.BER(res.Pi),
		Multigrid: res,
		SolveTime: elapsed,
	}, nil
}

// SolveDirect computes the stationary distribution with dense GTH — exact,
// subtraction-free, O(n³); for small models and cross-validation.
func (m *Model) SolveDirect() ([]float64, error) {
	if m.P == nil {
		return nil, errors.New("core: SolveDirect requires an assembled TPM")
	}
	ch, err := markov.New(m.P)
	if err != nil {
		return nil, err
	}
	return ch.StationaryDirect()
}

// BER integrates the tails of Φ + n_w beyond the decision threshold under
// the given stationary distribution: for each phase value the eye jitter
// tail probabilities are evaluated with deep-tail-safe CDF complements.
func (m *Model) BER(pi []float64) float64 {
	if len(pi) != m.NumStates() {
		panic("core: BER distribution length mismatch")
	}
	marg := m.PhaseMarginal(pi)
	t := m.Spec.Threshold
	ber := 0.0
	for mi, p := range marg {
		if p == 0 {
			continue
		}
		phi := m.PhaseValue(mi)
		errProb := dist.TailBelow(m.Spec.EyeJitter, -t-phi) + dist.TailAbove(m.Spec.EyeJitter, t-phi)
		ber += p * errProb
	}
	return ber
}

// PhaseMarginal returns the stationary marginal over the phase grid
// (length M, sums to 1).
func (m *Model) PhaseMarginal(pi []float64) []float64 {
	out := make([]float64, m.M)
	for idx, p := range pi {
		out[idx%m.M] += p
	}
	return out
}

// CounterMarginal returns the stationary marginal over counter states
// (length C).
func (m *Model) CounterMarginal(pi []float64) []float64 {
	out := make([]float64, m.C)
	for idx, p := range pi {
		out[(idx/m.M)%m.C] += p
	}
	return out
}

// DataMarginal returns the stationary marginal over data-source states
// (length D).
func (m *Model) DataMarginal(pi []float64) []float64 {
	out := make([]float64, m.D)
	for idx, p := range pi {
		out[idx/(m.M*m.C)] += p
	}
	return out
}

// PhasePlusJitterPDF evaluates the density of Φ + n_w on a uniform grid of
// n points spanning [lo, hi]: entry j is P(Φ + n_w ∈ bin_j)/width. This is
// the second curve of the paper's Figure 4/5 panels (the PD's effective
// input), whose tails beyond ±Threshold are the BER.
func (m *Model) PhasePlusJitterPDF(pi []float64, lo, hi float64, n int) ([]float64, error) {
	if n <= 0 || hi <= lo {
		return nil, errors.New("core: bad evaluation grid")
	}
	marg := m.PhaseMarginal(pi)
	width := (hi - lo) / float64(n)
	out := make([]float64, n)
	for mi, p := range marg {
		if p == 0 {
			continue
		}
		phi := m.PhaseValue(mi)
		for j := 0; j < n; j++ {
			a := lo + float64(j)*width
			b := a + width
			mass := m.Spec.EyeJitter.CDF(b-phi) - m.Spec.EyeJitter.CDF(a-phi)
			out[j] += p * mass / width
		}
	}
	return out, nil
}

// PhasePDF returns the stationary phase-error density: marginal
// probability per grid cell divided by the grid step (first curve of the
// figure panels).
func (m *Model) PhasePDF(pi []float64) []float64 {
	marg := m.PhaseMarginal(pi)
	for i := range marg {
		marg[i] /= m.Spec.GridStep
	}
	return marg
}

// SlipSet marks the states whose phase error has reached the decision
// threshold: |Φ| ≥ Threshold. Reaching it means the loop is about to
// re-lock onto a neighboring bit (a cycle slip).
func (m *Model) SlipSet() []bool {
	out := make([]bool, m.NumStates())
	for idx := range out {
		phi := m.PhaseValue(idx % m.M)
		if phi >= m.Spec.Threshold || phi <= -m.Spec.Threshold {
			out[idx] = true
		}
	}
	return out
}

// SlipStats computes the stationary entry flux into the slip set and the
// implied mean time between cycle slips (in bit periods).
func (m *Model) SlipStats(pi []float64) (passage.FluxResult, error) {
	var p passage.Transitions
	switch {
	case m.P != nil:
		p = m.P
	case m.Desc != nil:
		p = m.Desc
	default:
		return passage.FluxResult{}, errors.New("core: model has no transition backend")
	}
	return passage.SlipFlux(p, pi, m.SlipSet())
}

// WrapSlipRate returns the stationary probability per bit that the phase
// error wraps across the ±0.5 UI boundary — the exact cycle-slip rate of
// a WrapPhase model — together with the implied mean time between slips.
// It errors on saturating models, whose slip measure is SlipStats.
func (m *Model) WrapSlipRate(pi []float64) (rate, meanTimeBetween float64, err error) {
	if m.wrapSlip == nil {
		return 0, 0, errors.New("core: WrapSlipRate requires a WrapPhase model")
	}
	if len(pi) != m.NumStates() {
		return 0, 0, errors.New("core: distribution length mismatch")
	}
	for i, p := range pi {
		rate += p * m.wrapSlip[i]
	}
	if rate <= 0 {
		return rate, math.Inf(1), nil
	}
	return rate, 1 / rate, nil
}

// SlipQuasiStationary computes the quasi-stationary distribution and the
// asymptotic slip hazard: conditioned on never having slipped, the loop
// settles into ν and slips with probability HazardPerStep each bit. The
// conditioned BER m.BER(ν) is the error rate of a link that is restarted
// on every slip.
func (m *Model) SlipQuasiStationary() (passage.QuasiStationaryResult, error) {
	return passage.QuasiStationary(m.P, m.SlipSet(), 1e-12, 500000)
}

// SlipQuasiStationaryOpt is SlipQuasiStationary with the full option set:
// a cancellation (and cost-accounting) context, a shared worker team, and
// tolerance overrides. Zero-valued options keep SlipQuasiStationary's
// defaults. The service path uses this form so quasi-stationary sweeps
// respect request deadlines and attribute their kernel work.
func (m *Model) SlipQuasiStationaryOpt(opt passage.QSOptions) (passage.QuasiStationaryResult, error) {
	if opt.Tol <= 0 {
		opt.Tol = 1e-12
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 500000
	}
	return passage.QuasiStationaryOpt(m.P, m.SlipSet(), opt)
}

// MeanTimeToSlip solves the expected first-passage time (in bit periods)
// from the locked state to the slip set with the dense solver. Feasible
// for models up to a few thousand states; larger models should use
// SlipStats.
func (m *Model) MeanTimeToSlip() (float64, error) {
	times, err := passage.HittingTimesDense(m.P, m.SlipSet())
	if err != nil {
		return 0, err
	}
	return times[m.LockedIndex()], nil
}

// Chain wraps the transition backend in a markov.Chain: the TPM when one
// was assembled (every solver), the Kronecker descriptor otherwise (the
// operator-capable solvers; structural queries materialize it).
func (m *Model) Chain() (*markov.Chain, error) {
	if m.P == nil && m.Desc != nil {
		return markov.NewOperator(m.Desc)
	}
	if m.P == nil {
		return nil, errors.New("core: model has no transition backend")
	}
	return markov.New(m.P)
}

// FigureHeader renders the annotation line the paper prints above each
// figure panel: counter length, n_w standard deviation, max |n_r| and BER.
func (m *Model) FigureHeader(ber float64) string {
	return fmt.Sprintf("COUNTER: %d  STDnw: %.1e  MAXnr: %.1e  BER: %.1e",
		m.Spec.CounterLen, m.Spec.EyeJitter.Std(), m.Spec.Drift.MaxAbs(), ber)
}

// FigureFooter renders the annotation line below each panel: state-space
// size, multigrid cycles, matrix formation time and solve time in minutes.
func (m *Model) FigureFooter(a *Analysis) string {
	return fmt.Sprintf("Size: %d  Iter: %d  Matrixformtime: %.2f mins  Solvetime: %.2f mins",
		m.NumStates(), a.Multigrid.Cycles, m.FormTime.Minutes(), a.SolveTime.Minutes())
}

// Describe returns a multi-line summary of the model dimensions.
func (m *Model) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CDR model: %d states (data %d × counter %d × phase %d)\n",
		m.NumStates(), m.D, m.C, m.M)
	fmt.Fprintf(&b, "  grid step %.5f UI on ±%.3f UI, correction %.5f UI\n",
		m.Spec.GridStep, m.Spec.PhaseMax, m.Spec.CorrectionStep)
	fmt.Fprintf(&b, "  transition density %.2f, max run %d, counter length %d\n",
		m.Spec.TransitionDensity, m.Spec.MaxRunLength, m.Spec.CounterLen)
	fmt.Fprintf(&b, "  n_w std %.4g UI, n_r mean %.4g max %.4g UI\n",
		m.Spec.EyeJitter.Std(), m.Spec.Drift.Mean(), m.Spec.Drift.MaxAbs())
	if m.P != nil {
		fmt.Fprintf(&b, "  TPM nnz %d, bandwidth %d", m.P.NNZ(), m.P.Bandwidth())
	} else if m.Desc != nil {
		fmt.Fprintf(&b, "  Kronecker descriptor: %d terms, %d stored entries (%d B)",
			m.Desc.NumTerms(), m.Desc.NNZ(), m.Desc.MemoryBytes())
	}
	return b.String()
}
