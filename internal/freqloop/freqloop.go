// Package freqloop extends the CDR model with a second-order
// (phase-and-frequency) digital loop — the standard remedy when the
// receiver faces a frequency offset too large for the first-order
// phase-selection loop to track without a static lag. The paper's model
// is first order (its nonzero-mean n_r *is* the untracked offset); this
// extension adds the integral path a dual-loop digital CDR would carry:
//
//	f_{k+1} = clamp(f_k + overflow_k, −F, +F)
//	Φ_{k+1} = Φ_k − overflow_k·G − f_k·q + n_r(k)
//
// where overflow_k ∈ {−1, 0, +1} is the loop-filter counter's overflow
// event (exactly as in internal/core), q the frequency-register weight in
// UI/bit, and F the register range. At equilibrium f ≈ E[n_r]/q and the
// proportional path no longer needs a sustained correction rate: the
// static phase lag that produces the paper's Figure-5 long-counter
// penalty disappears.
//
// With FreqLen = 0 the model is bit-for-bit the first-order chain of
// internal/core (verified by test), so every comparison against the base
// model is exact.
package freqloop

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"cdrstoch/internal/core"
	"cdrstoch/internal/dist"
	"cdrstoch/internal/kron"
	"cdrstoch/internal/markov"
	"cdrstoch/internal/spmat"
)

// Spec extends the first-order CDR specification with the frequency path.
type Spec struct {
	// Base is the underlying first-order model specification.
	Base core.Spec
	// FreqLen is the register range F: the frequency estimate walks on
	// the integers [−F, +F]. Zero disables the frequency path.
	FreqLen int
	// FreqStep is the register weight q in UI/bit — the per-bit phase
	// correction applied per register count. Must be a positive multiple
	// of Base.GridStep when FreqLen > 0.
	FreqStep float64
}

// Validate checks the extended specification.
func (s Spec) Validate() error {
	if err := s.Base.Validate(); err != nil {
		return err
	}
	if s.FreqLen < 0 {
		return errors.New("freqloop: negative FreqLen")
	}
	if s.FreqLen > 0 {
		if s.FreqStep <= 0 {
			return errors.New("freqloop: FreqStep must be positive")
		}
		ratio := s.FreqStep / s.Base.GridStep
		if math.Abs(ratio-math.Round(ratio)) > 1e-9 {
			return fmt.Errorf("freqloop: FreqStep %g is not a multiple of GridStep %g",
				s.FreqStep, s.Base.GridStep)
		}
		// The register must be able to cancel the drift mean.
		if need := math.Abs(s.Base.Drift.Mean()) / s.FreqStep; float64(s.FreqLen) < need {
			return fmt.Errorf("freqloop: register range %d cannot reach the drift compensation ~%.1f counts",
				s.FreqLen, need)
		}
	}
	return nil
}

// Model is the assembled second-order chain. The product space is indexed
// (((d·C)+c)·Fn + f)·M + m with the phase fastest, Fn = 2·FreqLen+1 — but
// unlike the first-order model, the product is not fully reachable: a
// large register value drags the phase so hard that (high |f|,
// opposing-phase) states can never be re-entered. Build therefore
// restricts the chain to the closed class reachable from the locked
// state; States maps restricted indices back to product indices.
type Model struct {
	Spec Spec
	// D, C, Fn, M are the data, counter, frequency and phase state counts
	// of the underlying product space.
	D, C, Fn, M int
	// P is the transition probability matrix over the reachable class.
	P *spmat.CSR
	// States maps reachable-state indices to product-space indices.
	States []int
	// FormTime is the assembly wall-clock time.
	FormTime time.Duration

	mid int
	pos []int // product index -> reachable index (or −1)
}

// Build assembles the second-order transition matrix. For every register
// value f it takes core's terms with the drift shifted by the register
// correction −f·q (a fixed part of the phase jump) and puts a register
// factor f → clamp(f + overflow, −F, +F) in front of each term's phase
// factor.
func Build(spec Spec) (*Model, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	base := spec.Base
	m := &Model{Spec: spec, Fn: 2*spec.FreqLen + 1}
	m.D, m.C, m.M, m.mid = base.Frame()
	freqSteps := 0 // FreqStep in grid steps
	if spec.FreqLen > 0 {
		freqSteps = int(spec.FreqStep/base.GridStep + 0.5)
	}

	var terms []kron.Term
	for f := 0; f < m.Fn; f++ {
		fVal := f - spec.FreqLen
		drift := *base.Drift
		drift.MinK -= fVal * freqSteps
		shifted := base
		shifted.Drift = &drift
		ts, err := core.Terms(shifted)
		if err != nil {
			return nil, err
		}
		for _, t := range ts {
			reg := spmat.NewTriplet(m.Fn, m.Fn)
			reg.Add(f, min(max(fVal+t.Overflow, -spec.FreqLen), spec.FreqLen)+spec.FreqLen, 1)
			a, c, phase := t.Factors[0], t.Factors[1], t.Factors[2]
			terms = append(terms, kron.Term{Coeff: t.Coeff, Factors: []*spmat.CSR{a, c, reg.ToCSR(), phase}})
		}
	}
	d, err := kron.NewDescriptor(terms)
	if err != nil {
		return nil, err
	}
	full := d.ToCSR()
	if err := full.CheckStochastic(1e-9); err != nil {
		return nil, fmt.Errorf("freqloop: assembled TPM invalid: %w", err)
	}

	// Restrict to the closed class reachable from the locked state
	// (run 0, counter 0, register 0, Φ = 0). The reachable set is closed
	// by construction, so the restriction stays exactly stochastic.
	locked := m.productIndex(0, base.CounterLen-1, spec.FreqLen, m.mid)
	reach := bfsReachable(full, locked)
	m.States = reach
	m.pos = make([]int, d.Dim())
	for i := range m.pos {
		m.pos[i] = -1
	}
	for k, s := range reach {
		m.pos[s] = k
	}
	sub := spmat.NewTriplet(len(reach), len(reach))
	for k, s := range reach {
		cols, vals := full.Row(s)
		for kk, j := range cols {
			pj := m.pos[j]
			if pj < 0 {
				return nil, errors.New("freqloop: reachable set not closed (internal error)")
			}
			sub.Add(k, pj, vals[kk])
		}
	}
	m.P = sub.ToCSR()
	if err := m.P.CheckStochastic(1e-9); err != nil {
		return nil, fmt.Errorf("freqloop: restricted TPM invalid: %w", err)
	}
	m.FormTime = time.Since(start)
	return m, nil
}

// bfsReachable returns the sorted set of states reachable from start via
// positive-probability transitions.
func bfsReachable(p *spmat.CSR, start int) []int {
	n, _ := p.Dims()
	seen := make([]bool, n)
	seen[start] = true
	queue := []int{start}
	var out []int
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		out = append(out, v)
		cols, vals := p.Row(v)
		for k, w := range cols {
			if vals[k] > 0 && !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	// BFS emits in discovery order; sort for a stable layout.
	sort.Ints(out)
	return out
}

// productIndex maps (data, counter, freq, phase) to the full product
// index used during assembly.
func (m *Model) productIndex(d, c, f, mi int) int {
	return ((d*m.C+c)*m.Fn+f)*m.M + mi
}

// NumStates returns the size of the reachable (restricted) state space.
func (m *Model) NumStates() int { return len(m.States) }

// ProductStates returns the size of the unrestricted product space.
func (m *Model) ProductStates() int { return m.D * m.C * m.Fn * m.M }

// StateIndex maps (data, counter, freq, phase) coordinates to the
// restricted index, or −1 when the state is unreachable.
func (m *Model) StateIndex(d, c, f, mi int) int {
	return m.pos[m.productIndex(d, c, f, mi)]
}

// PhaseValue returns the phase of grid index mi in UI.
func (m *Model) PhaseValue(mi int) float64 {
	return float64(mi-m.mid) * m.Spec.Base.GridStep
}

// FreqValue returns the signed register value of frequency index f.
func (m *Model) FreqValue(f int) int { return f - m.Spec.FreqLen }

// PhaseMarginal returns the stationary marginal over the phase grid.
func (m *Model) PhaseMarginal(pi []float64) []float64 {
	out := make([]float64, m.M)
	for k, p := range pi {
		out[m.States[k]%m.M] += p
	}
	return out
}

// FreqMarginal returns the stationary marginal over the frequency
// register values (length Fn, index 0 = −FreqLen).
func (m *Model) FreqMarginal(pi []float64) []float64 {
	out := make([]float64, m.Fn)
	for k, p := range pi {
		out[(m.States[k]/m.M)%m.Fn] += p
	}
	return out
}

// MeanFreqCorrection returns the stationary mean of the integral-path
// correction −E[f]·q in UI/bit; at lock it cancels the drift mean.
func (m *Model) MeanFreqCorrection(pi []float64) float64 {
	marg := m.FreqMarginal(pi)
	mean := 0.0
	for f, p := range marg {
		mean += p * float64(m.FreqValue(f))
	}
	return -mean * m.Spec.FreqStep
}

// BER integrates the decision-error tails under the stationary marginal.
func (m *Model) BER(pi []float64) float64 {
	marg := m.PhaseMarginal(pi)
	t := m.Spec.Base.Threshold
	ber := 0.0
	for mi, p := range marg {
		if p == 0 {
			continue
		}
		phi := m.PhaseValue(mi)
		ber += p * (dist.TailBelow(m.Spec.Base.EyeJitter, -t-phi) +
			dist.TailAbove(m.Spec.Base.EyeJitter, t-phi))
	}
	return ber
}

// Solve computes the stationary distribution with Gauss–Seidel sweeps
// (the restricted state space breaks the regular segment layout the
// multigrid coarsening relies on; GS handles these model sizes directly).
func (m *Model) Solve(tol float64, maxIter int) ([]float64, markov.Result, error) {
	ch, err := markov.New(m.P)
	if err != nil {
		return nil, markov.Result{}, err
	}
	res, err := ch.StationaryGaussSeidel(markov.Options{Tol: tol, MaxIter: maxIter})
	if err != nil {
		return nil, markov.Result{}, err
	}
	if !res.Converged {
		return nil, res, fmt.Errorf("freqloop: Gauss-Seidel %w: %v", core.ErrUnconverged, res)
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
