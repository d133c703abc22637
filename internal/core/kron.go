package core

import (
	"cdrstoch/internal/kron"
	"cdrstoch/internal/spmat"
)

// BuildDescriptor expresses the CDR transition matrix as a sum of five
// Kronecker-product terms over the (data, counter, phase) components —
// the "hierarchical Kronecker algebra-like" compositional representation
// the paper proposes for manipulating the TPM without storing it:
//
//	P =   A_d⁰ ⊗ I_C    ⊗ S⁰            (no data transition)
//	    + A_d¹ ⊗ C⁺ₙₒ   ⊗ D₊·S⁰         (transition, LEAD, no overflow)
//	    + A_d¹ ⊗ C⁺ₒᵥ   ⊗ D₊·S⁻ᴳ        (transition, LEAD, overflow → −G)
//	    + A_d¹ ⊗ C⁻ₙₒ   ⊗ D₋·S⁰         (transition, LAG, no underflow)
//	    + A_d¹ ⊗ C⁻ₒᵥ   ⊗ D₋·S⁺ᴳ        (transition, LAG, underflow → +G)
//
// where A_d⁰/A_d¹ carry the (possibly state-dependent) transition-density
// probabilities, C± split the counter walk by overflow outcome, D± are
// diagonal matrices of the PD decision probabilities P(Φ + n_w ≷ 0), and
// S^δ applies the phase correction δ followed by the n_r jump with
// saturating boundaries. The phase-dependent decision probabilities live
// entirely inside the phase factors, so every term factorizes exactly.
func (m *Model) BuildDescriptor() (*kron.Descriptor, error) {
	drift := m.Spec.Drift.Trim()

	// Data factors.
	d0 := spmat.NewTriplet(m.D, m.D) // no transition
	d1 := spmat.NewTriplet(m.D, m.D) // transition
	for r := 0; r < m.D; r++ {
		pt := m.Spec.TransProb(r)
		if 1-pt > 0 {
			d0.Add(r, m.Spec.NextDataState(r, false), 1-pt)
		}
		if pt > 0 {
			d1.Add(r, 0, pt)
		}
	}

	// Counter factors: the +1 walk split by overflow, likewise −1.
	cpNo := spmat.NewTriplet(m.C, m.C)
	cpOv := spmat.NewTriplet(m.C, m.C)
	cmNo := spmat.NewTriplet(m.C, m.C)
	cmOv := spmat.NewTriplet(m.C, m.C)
	for c := 0; c < m.C; c++ {
		if next, corr := m.counterStep(c, +1); corr != 0 {
			cpOv.Add(c, next, 1)
		} else {
			cpNo.Add(c, next, 1)
		}
		if next, corr := m.counterStep(c, -1); corr != 0 {
			cmOv.Add(c, next, 1)
		} else {
			cmNo.Add(c, next, 1)
		}
	}

	// Phase factors: diag(decision prob) · shift(corr) · n_r, with the
	// decision probabilities evaluated exactly as in the direct build.
	// kind selects the diagonal: +1 LEAD, −1 LAG, 2 NULL-in-dead-zone,
	// 0 the unconditional (no-transition) branch.
	phase := func(kind int, corrSteps int) *spmat.CSR {
		tr := spmat.NewTriplet(m.M, m.M)
		tr.Reserve(m.M * drift.Len())
		for mi := 0; mi < m.M; mi++ {
			pLead, pLag, pNull := m.pdProbs(m.PhaseValue(mi))
			var w float64
			switch kind {
			case +1:
				w = pLead
			case -1:
				w = pLag
			case 2:
				w = pNull
			default:
				w = 1
			}
			if w == 0 {
				continue
			}
			base := mi + corrSteps
			drift.Support(func(_ float64, k int, pk float64) {
				mj := base + k
				if m.Spec.WrapPhase {
					mj = ((mj % m.M) + m.M) % m.M
				} else {
					if mj < 0 {
						mj = 0
					}
					if mj >= m.M {
						mj = m.M - 1
					}
				}
				tr.Add(mi, mj, w*pk)
			})
		}
		return tr.ToCSR()
	}

	idC := spmat.Identity(m.C)
	terms := []kron.Term{
		{Coeff: 1, Factors: []*spmat.CSR{d0.ToCSR(), idC, phase(0, 0)}},
		{Coeff: 1, Factors: []*spmat.CSR{d1.ToCSR(), cpNo.ToCSR(), phase(+1, 0)}},
		{Coeff: 1, Factors: []*spmat.CSR{d1.ToCSR(), cpOv.ToCSR(), phase(+1, -m.corrSteps)}},
		{Coeff: 1, Factors: []*spmat.CSR{d1.ToCSR(), cmNo.ToCSR(), phase(-1, 0)}},
		{Coeff: 1, Factors: []*spmat.CSR{d1.ToCSR(), cmOv.ToCSR(), phase(-1, +m.corrSteps)}},
	}
	if m.Spec.PDDeadZone > 0 {
		// Sixth term: a transition whose Φ + n_w lands in the dead zone
		// leaves the counter untouched.
		terms = append(terms, kron.Term{
			Coeff: 1, Factors: []*spmat.CSR{d1.ToCSR(), idC, phase(2, 0)},
		})
	}
	return kron.NewDescriptor(terms)
}
