package core

import (
	"fmt"
	"time"

	"cdrstoch/internal/dist"
	"cdrstoch/internal/kron"
	"cdrstoch/internal/spmat"
)

// Model is an assembled CDR Markov chain. State index layout is
// ((d·C)+c)·M + m with the phase index m fastest, so that consecutive
// discretized phase-error values are adjacent — the layout the multigrid
// pair-coarsening strategy relies on.
type Model struct {
	// Spec is the validated specification the model was built from.
	Spec Spec
	// D, C, M are the data, counter and phase-grid state counts.
	D, C, M int
	// P is the transition probability matrix over the full product space;
	// nil for a matrix-free model (BuildShell), whose transitions exist
	// only through Desc.
	P *spmat.CSR
	// Desc is the Kronecker descriptor backing a matrix-free model
	// (BuildShell); nil when the model was assembled explicitly (Build),
	// though SolveKron materializes one on demand for either form.
	Desc *kron.Descriptor
	// FormTime is the wall-clock time spent assembling P — the paper's
	// "Matrixformtime" annotation — or, for a matrix-free model, the
	// descriptor and wrap-tally formation time.
	FormTime time.Duration

	mid       int // phase index of Φ = 0
	corrSteps int // CorrectionStep expressed in grid steps
	// wrapSlip[i] is the probability that the transition leaving state i
	// wraps across the ±0.5 UI boundary (WrapPhase models only).
	wrapSlip []float64
}

// Build assembles the transition probability matrix from the spec: the
// materialized descriptor of its Terms.
func Build(spec Spec) (*Model, error) { return build(spec, true) }

// BuildShell prepares a model for matrix-free analysis: the dimensional
// frame, the Kronecker descriptor, and (for WrapPhase models) the
// per-state wrap-slip tally — everything Build produces except the
// assembled TPM. It checks the descriptor as Build checks P
// (kron.Descriptor.CheckStochastic at Build's 1e−9). Memory stays
// proportional to the component factors plus one state-sized vector for
// the tally; the product matrix never exists.
func BuildShell(spec Spec) (*Model, error) { return build(spec, false) }

// build forms the spec's Terms and the WrapPhase slip tally, and keeps
// the transition law materialized as P (explicit) or as the descriptor
// Desc.
func build(spec Spec, explicit bool) (*Model, error) {
	start := time.Now()
	terms, err := Terms(spec)
	if err != nil {
		return nil, err
	}
	m := &Model{Spec: spec, corrSteps: spec.correctionSteps()}
	m.D, m.C, m.M, m.mid = spec.Frame()
	d, err := descriptor(terms)
	if err != nil {
		return nil, err
	}
	if explicit {
		m.P = d.ToCSR()
		if err := m.P.CheckStochastic(1e-9); err != nil {
			return nil, fmt.Errorf("core: assembled TPM invalid: %w", err)
		}
	} else {
		if err := d.CheckStochastic(1e-9); err != nil {
			return nil, fmt.Errorf("core: transition descriptor invalid: %w", err)
		}
		m.Desc = d
	}
	m.wrapSlip = wrapSlips(terms, m.NumStates())
	m.FormTime = time.Since(start)
	return m, nil
}

// ExplicitEntries counts the entries an explicit Build expands, Σ_t Π_c
// nnz(F_tc) over the Terms: an upper bound on the assembled nnz, exact
// when no two terms reach one entry. A matrix-free shell uses it to
// report what the assembly it avoided would have cost.
func (m *Model) ExplicitEntries() int {
	d := m.Desc
	if d == nil {
		var err error
		if d, err = m.BuildDescriptor(); err != nil {
			return 0 // unreachable: Build validated the spec
		}
	}
	return d.ExpandedNNZ()
}

// pdProbs returns the phase-detector decision probabilities at phase
// error phi, honoring the dead zone: P(LEAD) = P(n_w > δ−Φ),
// P(LAG) = P(n_w ≤ −δ−Φ), P(NULL) the remaining dead-zone mass (δ = 0
// recovers the ideal signum detector). Deep-tail-safe evaluation keeps
// BER ~1e−14 distinguishable from zero. Each is clamped at zero: a grid
// PMF's tail 1 − CDF can round to −2e−16.
func pdProbs(s Spec, phi float64) (pLead, pLag, pNull float64) {
	delta := s.PDDeadZone
	pLead = max(dist.TailAbove(s.EyeJitter, delta-phi), 0)
	pLag = max(dist.TailBelow(s.EyeJitter, -delta-phi), 0)
	if delta > 0 {
		pNull = max(dist.TailBelow(s.EyeJitter, delta-phi)-dist.TailBelow(s.EyeJitter, -delta-phi), 0)
	}
	return pLead, pLag, pNull
}

// counterAdvance advances an up/down counter of overflow length l from
// state index cIdx (value cIdx − (l−1)) by dir ∈ {+1, −1}. It returns the
// successor index and the overflow direction: +1 when the counter hit +l
// (emit a retard-by-G correction), −1 when it hit −l (advance by G),
// 0 otherwise. The counter walks on c ∈ (−L, L) and resets to zero on
// overflow.
func counterAdvance(l, cIdx, dir int) (next, overflow int) {
	c := cIdx - (l - 1) + dir
	switch {
	case c >= l:
		return l - 1, +1
	case c <= -l:
		return l - 1, -1
	default:
		return c + (l - 1), 0
	}
}

// NumStates returns the size of the product state space D·C·M.
func (m *Model) NumStates() int { return m.D * m.C * m.M }

// StateIndex maps (data, counter, phase) coordinates to the global index.
func (m *Model) StateIndex(d, c, mi int) int { return (d*m.C+c)*m.M + mi }

// Coords inverts StateIndex.
func (m *Model) Coords(idx int) (d, c, mi int) {
	mi = idx % m.M
	idx /= m.M
	c = idx % m.C
	d = idx / m.C
	return d, c, mi
}

// PhaseValue returns the phase error in UI of grid index mi.
func (m *Model) PhaseValue(mi int) float64 {
	return float64(mi-m.mid) * m.Spec.GridStep
}

// PhaseIndex returns the grid index closest to phase value phi — clamped
// in the saturating model, reduced modulo one UI in the wrap model.
func (m *Model) PhaseIndex(phi float64) int {
	mi := m.mid + int(roundHalfAway(phi/m.Spec.GridStep))
	if m.Spec.WrapPhase {
		return ((mi % m.M) + m.M) % m.M
	}
	if mi < 0 {
		return 0
	}
	if mi >= m.M {
		return m.M - 1
	}
	return mi
}

func roundHalfAway(x float64) float64 {
	if x >= 0 {
		return float64(int(x + 0.5))
	}
	return -float64(int(-x + 0.5))
}

// CounterValue returns the signed counter value of counter index c.
func (m *Model) CounterValue(c int) int { return c - (m.Spec.CounterLen - 1) }

// LockedIndex returns the state index of the nominal locked point:
// run-length 0, counter 0, Φ = 0.
func (m *Model) LockedIndex() int {
	return m.StateIndex(0, m.Spec.CounterLen-1, m.mid)
}
