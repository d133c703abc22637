// Package core implements the paper's primary contribution: the stochastic
// model of the digital phase-selection loop of a clock-and-data-recovery
// (CDR) circuit, its Markov-chain construction, and the performance
// measures derived from it (bit error rate, stationary phase-error
// densities, cycle-slip statistics).
//
// # The circuit (paper Figure 1)
//
// The modeled CDR has two coupled loops. An analog charge-pump PLL with a
// crystal reference drives a multi-phase VCO; a digital loop selects the
// best VCO phase to retime the incoming data. The digital loop consists of
// a phase detector (PD) comparing the selected clock phase against data
// transitions, a digital loop filter (an up/down counter), and a phase
// selection multiplexer stepping the selected phase by the smallest
// increment G available from the multi-phase clock. This package models
// the digital loop; the analog loop enters through the clock-jitter
// characterization (see internal/pllsim).
//
// # The model (paper Figure 2, equations (2)–(3))
//
//	Φ_{k+1} = Φ_k − f(Φ_k + n_w(k), S_k) + n_r(k)
//	S_{k+1} = g(Φ_k + n_w(k), S_k)
//
// Φ is the phase error between incoming data and recovered clock, n_w the
// white eye-opening jitter, n_r the white accumulating noise with (usually)
// nonzero mean, f ∈ {−G, 0, +G} the phase correction and g the phase
// detector/filter FSM. Four interacting FSMs realize the model: a
// SONET-style data source, the phase detector (LAG/NULL/LEAD), the up/down
// counter and the phase-error integrator on a discretized grid.
package core

import (
	"errors"
	"fmt"
	"math"

	"cdrstoch/internal/dist"
)

// Spec parameterizes the CDR model. The zero value is not valid; use
// DefaultSpec as a starting point.
type Spec struct {
	// GridStep is the phase-error discretization step h in UI. Powers of
	// two (1/64, 1/128, …) keep grid arithmetic exact in float64.
	GridStep float64
	// PhaseMax bounds the phase grid: Φ ∈ [−PhaseMax, +PhaseMax]. The
	// boundary saturates (reflecting analysis); states at or beyond the
	// decision threshold form the cycle-slip set.
	PhaseMax float64
	// CorrectionStep is the phase-selection increment G in UI — the
	// smallest phase step of the multi-phase clock. Must be a positive
	// multiple of GridStep.
	CorrectionStep float64

	// TransitionDensity is the probability that consecutive data bits
	// differ. The PD produces phase information only on transitions.
	TransitionDensity float64
	// MaxRunLength forces a transition after this many identical bits
	// (the paper: "the longest possible bit sequence with no
	// transitions"). Zero disables the constraint.
	MaxRunLength int

	// EyeJitter is the law of n_w, the white eye-opening jitter in UI.
	EyeJitter dist.Continuous
	// Drift is the PMF of n_r in UI on multiples of GridStep.
	Drift *dist.PMF

	// CounterLen is the loop-filter up/down counter overflow length L:
	// the counter walks in (−L, L) and emits a phase correction when it
	// would reach ±L. L = 1 applies a correction on every transition.
	CounterLen int

	// Threshold is the decision threshold in UI: a bit error occurs when
	// |Φ + n_w| exceeds it. Half a clock cycle (0.5 UI) by default.
	Threshold float64

	// PDDeadZone is the phase detector's dead zone half-width in UI:
	// on a data transition the PD emits NULL (no counter update) when
	// |Φ + n_w| ≤ PDDeadZone, LEAD/LAG otherwise. Real bang-bang
	// detectors exhibit such a zone through comparator metastability and
	// setup/hold margins; zero models the ideal signum PD of the paper's
	// equation (1).
	PDDeadZone float64

	// WrapPhase switches the phase-error boundary model. When false
	// (default) the grid spans [−PhaseMax, +PhaseMax] and saturates at the
	// ends — the analysis-friendly model whose boundary states form the
	// slip set. When true the grid covers exactly one UI, [−0.5, 0.5−h],
	// and the phase wraps modulo 1 UI: a cycle slip is then a physical
	// event (the loop re-locks one bit off) whose stationary rate the
	// model counts exactly (Model.WrapSlipRate). PhaseMax is ignored.
	WrapPhase bool
}

// DefaultSpec returns the baseline configuration used across examples and
// benchmarks: a 1/64-UI grid on ±0.75 UI, a 1/16-UI phase mux step, SONET-
// style data with transition density 1/2 and maximum run length 4, 0.02 UI
// RMS Gaussian eye jitter, and a bounded skewed drift with MAXnr = 1/16 UI.
func DefaultSpec() Spec {
	h := 1.0 / 64
	drift, err := dist.DriftPMF(dist.DriftSpec{Step: h, Max: 4 * h, Mean: h / 4, Shape: 0.5})
	if err != nil {
		panic("core: default drift construction failed: " + err.Error())
	}
	return Spec{
		GridStep:          h,
		PhaseMax:          0.75,
		CorrectionStep:    4 * h, // 1/16 UI: a 16-phase VCO
		TransitionDensity: 0.5,
		MaxRunLength:      4,
		EyeJitter:         dist.NewGaussian(0, 0.02),
		Drift:             drift,
		CounterLen:        8,
		Threshold:         0.5,
	}
}

// Validate checks the specification for consistency.
func (s Spec) Validate() error {
	if s.GridStep <= 0 {
		return errors.New("core: GridStep must be positive")
	}
	if s.WrapPhase {
		cells := 1 / s.GridStep
		if math.Abs(cells-math.Round(cells)) > 1e-9 || math.Round(cells) < 4 {
			return fmt.Errorf("core: WrapPhase requires 1/GridStep to be an integer >= 4, got %g", cells)
		}
		if s.Threshold > 0.5 {
			return fmt.Errorf("core: WrapPhase threshold %g exceeds the half-UI domain", s.Threshold)
		}
	} else if s.PhaseMax < s.Threshold {
		return fmt.Errorf("core: PhaseMax %g must reach the decision threshold %g", s.PhaseMax, s.Threshold)
	} else if s.GridStep >= s.PhaseMax {
		// A step at or beyond the half-span collapses the grid to at most
		// three points and the boundary slip states swallow the lock point.
		return fmt.Errorf("core: degenerate grid: GridStep %g must be smaller than PhaseMax %g", s.GridStep, s.PhaseMax)
	}
	if s.CorrectionStep <= 0 {
		return errors.New("core: CorrectionStep must be positive")
	}
	ratio := s.CorrectionStep / s.GridStep
	if math.Abs(ratio-math.Round(ratio)) > 1e-9 {
		return fmt.Errorf("core: CorrectionStep %g is not a multiple of GridStep %g", s.CorrectionStep, s.GridStep)
	}
	if s.TransitionDensity < 0 || s.TransitionDensity > 1 {
		return fmt.Errorf("core: TransitionDensity %g outside [0,1]", s.TransitionDensity)
	}
	if s.TransitionDensity == 0 && s.MaxRunLength == 0 {
		return errors.New("core: data never transitions; the loop receives no phase information")
	}
	if s.MaxRunLength < 0 {
		return errors.New("core: negative MaxRunLength")
	}
	if s.EyeJitter == nil {
		return errors.New("core: EyeJitter law required")
	}
	if s.Drift == nil {
		return errors.New("core: Drift PMF required")
	}
	if math.Abs(s.Drift.Step-s.GridStep) > 1e-12*s.GridStep {
		return fmt.Errorf("core: Drift step %g must equal GridStep %g", s.Drift.Step, s.GridStep)
	}
	if s.Drift.Origin != 0 {
		// The phase moves by the support index k·GridStep, so n_r must
		// take its values on grid multiples.
		return fmt.Errorf("core: Drift origin %g must be 0", s.Drift.Origin)
	}
	if s.CounterLen < 1 {
		return errors.New("core: CounterLen must be >= 1")
	}
	if s.Threshold <= 0 {
		return errors.New("core: Threshold must be positive")
	}
	if s.PDDeadZone < 0 || s.PDDeadZone >= s.Threshold {
		return fmt.Errorf("core: PDDeadZone %g outside [0, Threshold)", s.PDDeadZone)
	}
	// The solvers' plan destinations and transpose permutations are 32-bit.
	// Counted in float64, a grid too fine for Frame's int conversion is
	// rejected rather than wrapped.
	if d, c, m := s.frame(); d*c*m > math.MaxInt32 {
		return fmt.Errorf("core: %.6g × %.6g × %.6g = %.4g states exceed the %d a solver can index",
			d, c, m, d*c*m, math.MaxInt32)
	}
	return nil
}

// TransProb returns the probability of a data transition from run-length
// state r (0-based count of identical bits already seen beyond the first).
// Exported, with NextDataState and Frame, so model extensions share the
// data source and state-space frame exactly.
func (s Spec) TransProb(r int) float64 {
	if s.MaxRunLength > 0 && r == s.MaxRunLength-1 {
		return 1
	}
	return s.TransitionDensity
}

// NextDataState returns the data FSM successor for a given branch.
func (s Spec) NextDataState(r int, transition bool) int {
	if transition {
		return 0
	}
	if s.MaxRunLength > 0 && r < s.MaxRunLength-1 {
		return r + 1
	}
	if s.MaxRunLength > 0 {
		// Unreachable: TransProb forces a transition at the cap.
		return r
	}
	return 0
}

// correctionSteps returns CorrectionStep in grid steps.
func (s Spec) correctionSteps() int { return int(s.CorrectionStep/s.GridStep + 0.5) }

// Frame returns the product space's dimensions — d data-source
// (run-length tracker) states, 1 when no run-length constraint applies;
// c = 2L − 1 counter states; m phase grid points, odd and spanning
// ±PhaseMax in the saturating model, exactly one UI in the wrap model —
// and mid, the grid index of Φ = 0.
func (s Spec) Frame() (d, c, m, mid int) {
	fd, fc, fm := s.frame()
	d, c, m = int(fd), int(fc), int(fm)
	return d, c, m, m / 2
}

// frame is Frame's dimensions in float64: exact for every spec Validate
// accepts, and never wrapped round for one too large to index.
func (s Spec) frame() (d, c, m float64) {
	d = float64(max(s.MaxRunLength, 1))
	c = 2*float64(s.CounterLen) - 1
	if s.WrapPhase {
		return d, c, math.Round(1 / s.GridStep)
	}
	return d, c, 2*math.Round(s.PhaseMax/s.GridStep) + 1
}
