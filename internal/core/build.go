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

// newShell validates the spec and sets up the model's dimensional frame —
// everything both the explicit (Build) and matrix-free (BuildShell)
// constructors share before choosing a transition backend.
func newShell(spec Spec) (*Model, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m := &Model{Spec: spec, corrSteps: int(spec.CorrectionStep/spec.GridStep + 0.5)}
	m.D, m.C, m.M, m.mid = spec.Frame()
	return m, nil
}

// pdTables evaluates the phase-detector decision probabilities once per
// grid point. They depend only on the phase index, not on the data or
// counter state. On a data transition the PD emits LEAD when Φ + n_w > +δ,
// LAG when Φ + n_w ≤ −δ and NULL inside the dead zone |Φ + n_w| ≤ δ (δ = 0
// recovers the ideal signum detector). Deep-tail-safe evaluation keeps
// BER ~1e−14 distinguishable from zero.
func (m *Model) pdTables() (pLeadAt, pLagAt, pNullAt []float64) {
	pLeadAt = make([]float64, m.M)
	pLagAt = make([]float64, m.M)
	pNullAt = make([]float64, m.M)
	for mi := 0; mi < m.M; mi++ {
		pLeadAt[mi], pLagAt[mi], pNullAt[mi] = m.pdProbs(m.PhaseValue(mi))
	}
	return pLeadAt, pLagAt, pNullAt
}

// assemble walks every (data, counter, phase) state and scatters its
// surviving transition branches: into tr when non-nil (the explicit
// build), and in any case through addBranch's wrap-slip tally — which is
// how BuildShell obtains the WrapPhase slip probabilities without ever
// holding a triplet.
func (m *Model) assemble(tr *spmat.Triplet, drift *dist.PMF, pLeadAt, pLagAt, pNullAt []float64) {
	for d := 0; d < m.D; d++ {
		pt := m.Spec.TransProb(d)
		dNoTrans := m.Spec.NextDataState(d, false)
		for c := 0; c < m.C; c++ {
			cLead, corrLead := m.counterStep(c, +1)
			cLag, corrLag := m.counterStep(c, -1)
			for mi := 0; mi < m.M; mi++ {
				from := m.StateIndex(d, c, mi)
				pLead, pLag, pNull := pLeadAt[mi], pLagAt[mi], pNullAt[mi]

				if w := 1 - pt; w > 0 {
					m.addBranch(tr, from, dNoTrans, c, mi, 0, w, drift)
				}
				if pt > 0 {
					if w := pt * pLead; w > 0 {
						m.addBranch(tr, from, 0, cLead, mi, corrLead, w, drift)
					}
					if w := pt * pLag; w > 0 {
						m.addBranch(tr, from, 0, cLag, mi, corrLag, w, drift)
					}
					if w := pt * pNull; w > 0 {
						m.addBranch(tr, from, 0, c, mi, 0, w, drift)
					}
				}
			}
		}
	}
}

// Build assembles the transition probability matrix from the spec.
func Build(spec Spec) (*Model, error) {
	m, err := newShell(spec)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	n := m.D * m.C * m.M
	if spec.WrapPhase {
		m.wrapSlip = make([]float64, n)
	}
	drift := spec.Drift.Trim()
	pLeadAt, pLagAt, pNullAt := m.pdTables()
	tr := spmat.NewTriplet(n, n)
	tr.Reserve(m.scatteredEntries(drift, pLeadAt, pLagAt, pNullAt))
	m.assemble(tr, drift, pLeadAt, pLagAt, pNullAt)
	p := tr.ToCSR()
	if err := p.CheckStochastic(1e-9); err != nil {
		return nil, fmt.Errorf("core: assembled TPM invalid: %w", err)
	}
	m.P = p
	m.FormTime = time.Since(start)
	return m, nil
}

// scatteredEntries counts the triplet entries assemble would scatter:
// each surviving branch contributes one entry per nonzero drift mass
// point. Build uses it to Reserve exactly (assembly never regrows);
// ExplicitEntries uses it to price an assembly that never happens.
func (m *Model) scatteredEntries(drift *dist.PMF, pLeadAt, pLagAt, pNullAt []float64) int {
	driftNNZ := 0
	drift.Support(func(float64, int, float64) { driftNNZ++ })
	entries := 0
	for d := 0; d < m.D; d++ {
		pt := m.Spec.TransProb(d)
		branches := 0
		for mi := 0; mi < m.M; mi++ {
			if 1-pt > 0 {
				branches++
			}
			if pt > 0 {
				if pt*pLeadAt[mi] > 0 {
					branches++
				}
				if pt*pLagAt[mi] > 0 {
					branches++
				}
				if pt*pNullAt[mi] > 0 {
					branches++
				}
			}
		}
		entries += m.C * branches * driftNNZ
	}
	return entries
}

// ExplicitEntries counts the triplet entries an explicit Build of this
// model would scatter — an upper bound within a few percent of the final
// CSR's nnz (boundary clamping and wrap folding merge some duplicates).
// It runs the exact counting loop Build uses without allocating anything
// matrix-shaped, so a matrix-free shell can report what the assembly it
// avoided would have cost.
func (m *Model) ExplicitEntries() int {
	pLeadAt, pLagAt, pNullAt := m.pdTables()
	return m.scatteredEntries(m.Spec.Drift.Trim(), pLeadAt, pLagAt, pNullAt)
}

// BuildShell prepares a model for matrix-free analysis: the dimensional
// frame, the Kronecker descriptor, and (for WrapPhase models) the
// per-state wrap-slip tally — everything Build produces except the
// assembled TPM. Memory stays proportional to the component factors plus
// one state-sized vector for the tally; the product matrix never exists.
func BuildShell(spec Spec) (*Model, error) {
	m, err := newShell(spec)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if spec.WrapPhase {
		m.wrapSlip = make([]float64, m.D*m.C*m.M)
		pLeadAt, pLagAt, pNullAt := m.pdTables()
		m.assemble(nil, spec.Drift.Trim(), pLeadAt, pLagAt, pNullAt)
	}
	d, err := m.BuildDescriptor()
	if err != nil {
		return nil, err
	}
	m.Desc = d
	m.FormTime = time.Since(start)
	return m, nil
}

// addBranch accumulates one (data, counter, correction) branch across the
// drift PMF: Φ' = clamp(Φ + corr + n_r) in the saturating model, or
// Φ' = wrap(Φ + corr + n_r) in the wrap model, where boundary crossings
// are additionally tallied as cycle-slip probability.
func (m *Model) addBranch(tr *spmat.Triplet, from, d, c, mi, corrSteps int, w float64, drift *dist.PMF) {
	base := mi + corrSteps
	drift.Support(func(_ float64, k int, pk float64) {
		mj := base + k
		if m.Spec.WrapPhase {
			if mj < 0 || mj >= m.M {
				m.wrapSlip[from] += w * pk
				mj = ((mj % m.M) + m.M) % m.M
			}
		} else {
			if mj < 0 {
				mj = 0
			}
			if mj >= m.M {
				mj = m.M - 1
			}
		}
		if tr != nil {
			tr.Add(from, m.StateIndex(d, c, mj), w*pk)
		}
	})
}

// PDProbs returns the phase-detector decision probabilities at phase
// error phi for the given spec, honoring the dead zone:
// P(LEAD) = P(n_w > δ−Φ), P(LAG) = P(n_w ≤ −δ−Φ), P(NULL) the remaining
// dead-zone mass. Exported so model extensions (e.g. the second-order
// loop in internal/freqloop) share the exact decision arithmetic.
func PDProbs(s Spec, phi float64) (pLead, pLag, pNull float64) {
	delta := s.PDDeadZone
	pLead = dist.TailAbove(s.EyeJitter, delta-phi)
	pLag = dist.TailBelow(s.EyeJitter, -delta-phi)
	if delta > 0 {
		pNull = dist.TailBelow(s.EyeJitter, delta-phi) - dist.TailBelow(s.EyeJitter, -delta-phi)
		if pNull < 0 {
			pNull = 0
		}
	}
	return pLead, pLag, pNull
}

// pdProbs is the model-bound form of PDProbs.
func (m *Model) pdProbs(phi float64) (pLead, pLag, pNull float64) {
	return PDProbs(m.Spec, phi)
}

// CounterAdvance advances an up/down counter of overflow length l from
// state index cIdx (value cIdx − (l−1)) by dir ∈ {+1, −1}. It returns the
// successor index and the overflow direction: +1 when the counter hit +l
// (emit a retard-by-G correction), −1 when it hit −l (advance by G),
// 0 otherwise. Exported for model extensions.
func CounterAdvance(l, cIdx, dir int) (next, overflow int) {
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

// counterStep advances the up/down counter state index by dir ∈ {+1, −1}
// and returns the successor index together with the phase correction (in
// grid steps) emitted on overflow. The counter walks on c ∈ (−L, L); at ±L
// it emits ∓G and resets to zero.
func (m *Model) counterStep(cIdx, dir int) (next, corrSteps int) {
	next, overflow := CounterAdvance(m.Spec.CounterLen, cIdx, dir)
	return next, -overflow * m.corrSteps
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
