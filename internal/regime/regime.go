// Package regime extends the CDR model with Markov-modulated noise: the
// jitter environment itself switches between regimes (e.g. "quiet" and
// "interference burst") according to a small Markov chain, and each
// regime carries its own eye-jitter law and accumulating-noise PMF.
//
// This is the paper's modeling language taken one step further — the
// random inputs are "functions on a Markov chain state-space", so a
// regime process is just one more component FSM in the composition — and
// it captures the paper's motivating industrial failure: a multiplexer
// chip whose BER was an order of magnitude off spec because of
// *interference noise* coupled from the rest of the chip, i.e. noise that
// arrives in correlated bursts rather than as a white background. The
// stationary BER of the modulated model is the regime-weighted average of
// conditional error rates, but the *frame* error rate is not: bursts
// cluster errors, which this model quantifies exactly.
package regime

import (
	"errors"
	"fmt"
	"math"
	"time"

	"cdrstoch/internal/core"
	"cdrstoch/internal/dist"
	"cdrstoch/internal/kron"
	"cdrstoch/internal/lump"
	"cdrstoch/internal/markov"
	"cdrstoch/internal/multigrid"
	"cdrstoch/internal/spmat"
)

// Regime describes one noise environment.
type Regime struct {
	// Name labels the regime in reports.
	Name string
	// EyeJitter is the n_w law while this regime is active.
	EyeJitter dist.Continuous
	// Drift is the n_r PMF while this regime is active (grid-aligned).
	Drift *dist.PMF
}

// Spec extends a base CDR specification with regime switching. The base
// spec's EyeJitter and Drift are ignored; each regime supplies its own.
type Spec struct {
	// Base carries the loop parameters (grid, counter, data statistics,
	// threshold, boundary model, dead zone).
	Base core.Spec
	// Regimes lists the noise environments (at least one).
	Regimes []Regime
	// Switch is the regime transition matrix: Switch[i][j] is the per-bit
	// probability of moving from regime i to regime j. Rows must sum to 1.
	Switch [][]float64
}

// Validate checks the extended specification.
func (s Spec) Validate() error {
	if len(s.Regimes) == 0 {
		return errors.New("regime: at least one regime required")
	}
	if len(s.Switch) != len(s.Regimes) {
		return fmt.Errorf("regime: switch matrix has %d rows for %d regimes", len(s.Switch), len(s.Regimes))
	}
	for i, row := range s.Switch {
		if len(row) != len(s.Regimes) {
			return fmt.Errorf("regime: switch row %d has %d entries", i, len(row))
		}
		sum := 0.0
		for j, p := range row {
			if p < 0 {
				return fmt.Errorf("regime: negative switch probability at (%d,%d)", i, j)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("regime: switch row %d sums to %g", i, sum)
		}
	}
	for i, r := range s.Regimes {
		probe := s.Base
		probe.EyeJitter = r.EyeJitter
		probe.Drift = r.Drift
		if err := probe.Validate(); err != nil {
			return fmt.Errorf("regime %d (%s): %w", i, r.Name, err)
		}
	}
	return nil
}

// Model is the assembled regime-modulated chain. State index layout is
// (((r·D)+d)·C + c)·M + m with the phase fastest and the regime slowest,
// so the multigrid phase-pair coarsening applies unchanged with
// R·D·C segments.
type Model struct {
	Spec Spec
	// R, D, C, M are the regime, data, counter and phase state counts.
	R, D, C, M int
	// P is the transition probability matrix.
	P *spmat.CSR
	// FormTime is the assembly wall-clock time.
	FormTime time.Duration

	mid int
}

// Build assembles the modulated transition matrix. The regime switches
// independently of the loop each bit; within a bit the active regime's
// laws drive the PD decision and the phase jump (the regime transition
// applies the *current* regime's noise, then moves). Each term is a
// switch factor — row r of Switch — in front of one of core's terms for
// regime r's laws.
func Build(spec Spec) (*Model, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	base := spec.Base
	m := &Model{Spec: spec, R: len(spec.Regimes)}
	m.D, m.C, m.M, m.mid = base.Frame()

	var terms []kron.Term
	for r, reg := range spec.Regimes {
		regimeSpec := base
		regimeSpec.EyeJitter = reg.EyeJitter
		regimeSpec.Drift = reg.Drift
		ts, err := core.Terms(regimeSpec)
		if err != nil {
			return nil, err
		}
		sw := spmat.NewTriplet(m.R, m.R)
		for r2, ps := range spec.Switch[r] {
			if ps > 0 {
				sw.Add(r, r2, ps)
			}
		}
		swr := sw.ToCSR()
		for _, t := range ts {
			factors := append([]*spmat.CSR{swr}, t.Factors...)
			terms = append(terms, kron.Term{Coeff: t.Coeff, Factors: factors})
		}
	}
	d, err := kron.NewDescriptor(terms)
	if err != nil {
		return nil, err
	}
	p := d.ToCSR()
	if err := p.CheckStochastic(1e-9); err != nil {
		return nil, fmt.Errorf("regime: assembled TPM invalid: %w", err)
	}
	m.P = p
	m.FormTime = time.Since(start)
	return m, nil
}

// NumStates returns R·D·C·M.
func (m *Model) NumStates() int { return m.R * m.D * m.C * m.M }

// StateIndex maps (regime, data, counter, phase) to the global index.
func (m *Model) StateIndex(r, d, c, mi int) int {
	return ((r*m.D+d)*m.C+c)*m.M + mi
}

// PhaseValue returns the phase of grid index mi in UI.
func (m *Model) PhaseValue(mi int) float64 {
	return float64(mi-m.mid) * m.Spec.Base.GridStep
}

// RegimeMarginal returns the stationary regime occupancies.
func (m *Model) RegimeMarginal(pi []float64) []float64 {
	out := make([]float64, m.R)
	block := m.D * m.C * m.M
	for idx, p := range pi {
		out[idx/block] += p
	}
	return out
}

// PhaseMarginal returns the stationary marginal over the phase grid.
func (m *Model) PhaseMarginal(pi []float64) []float64 {
	out := make([]float64, m.M)
	for idx, p := range pi {
		out[idx%m.M] += p
	}
	return out
}

// ErrorProbVector returns the per-state error probability with the active
// regime's eye-jitter law.
func (m *Model) ErrorProbVector() []float64 {
	t := m.Spec.Base.Threshold
	out := make([]float64, m.NumStates())
	block := m.D * m.C * m.M
	for idx := range out {
		r := idx / block
		phi := m.PhaseValue(idx % m.M)
		eye := m.Spec.Regimes[r].EyeJitter
		out[idx] = dist.TailBelow(eye, -t-phi) + dist.TailAbove(eye, t-phi)
	}
	return out
}

// BER returns the stationary bit error rate.
func (m *Model) BER(pi []float64) float64 {
	e := m.ErrorProbVector()
	acc := 0.0
	for i, p := range pi {
		acc += p * e[i]
	}
	return acc
}

// ConditionalBER returns the error rate conditioned on each regime.
func (m *Model) ConditionalBER(pi []float64) []float64 {
	e := m.ErrorProbVector()
	block := m.D * m.C * m.M
	num := make([]float64, m.R)
	den := make([]float64, m.R)
	for i, p := range pi {
		r := i / block
		num[r] += p * e[i]
		den[r] += p
	}
	out := make([]float64, m.R)
	for r := range out {
		if den[r] > 0 {
			out[r] = num[r] / den[r]
		}
	}
	return out
}

// FrameErrorRate returns P(≥1 error in frameBits consecutive bits) from
// the stationary ensemble — with bursty regimes this sits *below* the
// i.i.d. estimate because errors cluster inside bursts.
func (m *Model) FrameErrorRate(pi []float64, frameBits int) (float64, error) {
	if frameBits <= 0 {
		return 0, fmt.Errorf("regime: frame length %d", frameBits)
	}
	ch, err := markov.New(m.P)
	if err != nil {
		return 0, err
	}
	return ch.FrameErrorRate(pi, m.ErrorProbVector(), frameBits)
}

// Hierarchy builds the phase-pair multigrid coarsening (segments =
// R·D·C), continuing across the counter dimension.
func (m *Model) Hierarchy(minSegLen int) ([]*lump.Partition, error) {
	parts, err := multigrid.BuildPairHierarchy(m.M, m.R*m.D*m.C, minSegLen)
	if err != nil {
		return nil, err
	}
	_, segLen := multigrid.PairLevelCount(m.M, minSegLen)
	counters := m.C
	for counters > 3 {
		part, err := lump.PairSegmentsElementwise(segLen, counters, m.R*m.D)
		if err != nil {
			return nil, err
		}
		parts = append(parts, part)
		counters = (counters + 1) / 2
	}
	return parts, nil
}

// Solve computes the stationary distribution with the multilevel solver.
func (m *Model) Solve(cfg multigrid.Config) ([]float64, multigrid.Result, error) {
	const minSegLen = 4
	parts, err := m.Hierarchy(minSegLen)
	if err != nil {
		return nil, multigrid.Result{}, err
	}
	solver, err := multigrid.New(m.P, parts, multigrid.ColdDefaults(cfg, m.M, minSegLen))
	if err != nil {
		return nil, multigrid.Result{}, err
	}
	res, err := solver.Solve(nil)
	if err != nil {
		return nil, multigrid.Result{}, err
	}
	if !res.Converged {
		return nil, res, fmt.Errorf("regime: multigrid %w: %v", core.ErrUnconverged, res)
	}
	return res.Pi, res, nil
}

// SolveDirect computes the stationary distribution with dense GTH.
func (m *Model) SolveDirect() ([]float64, error) {
	ch, err := markov.New(m.P)
	if err != nil {
		return nil, err
	}
	return ch.StationaryDirect()
}

// Chain wraps the TPM for structural queries.
func (m *Model) Chain() (*markov.Chain, error) { return markov.New(m.P) }
