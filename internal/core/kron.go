package core

import (
	"cdrstoch/internal/kron"
	"cdrstoch/internal/spmat"
)

// Term is one Kronecker-product summand of the CDR transition law over
// the (data, counter, phase) components, together with what a model
// extension needs to know of the branch it encodes.
type Term struct {
	kron.Term
	// Overflow is the counter overflow the branch emits: +1 when the
	// counter reaches +L and the phase retards by G, −1 when it reaches
	// −L and the phase advances by G, 0 otherwise.
	Overflow int
	// wrapped holds, for a WrapPhase spec, the entries of the phase factor
	// whose jump crossed the ±0.5 UI boundary; nil in the saturating model.
	wrapped *spmat.CSR
}

// Terms expresses the CDR transition matrix as a sum of five Kronecker
// products over the (data, counter, phase) components — the
// "hierarchical Kronecker algebra-like" compositional representation the
// paper proposes for manipulating the TPM without storing it:
//
//	P =   A⁰ ⊗ I_C  ⊗ S⁰         (no data transition)
//	    + A¹ ⊗ C⁺ₙₒ ⊗ D₊·S⁰      (transition, LEAD, no overflow)
//	    + A¹ ⊗ C⁺ₒᵥ ⊗ D₊·S⁻ᴳ     (transition, LEAD, overflow → −G)
//	    + A¹ ⊗ C⁻ₙₒ ⊗ D₋·S⁰      (transition, LAG, no underflow)
//	    + A¹ ⊗ C⁻ₒᵥ ⊗ D₋·S⁺ᴳ     (transition, LAG, underflow → +G)
//
// where A⁰/A¹ carry the (possibly run-length-dependent) data-transition
// probabilities, C± split the counter walk by overflow outcome, D± are
// diagonal matrices of the PD decision probabilities, and S^δ applies the
// phase correction δ followed by the n_r jump, clamped at the grid ends
// or wrapped modulo one UI. A dead zone adds a sixth term, A¹ ⊗ I_C ⊗
// D₀·S⁰: a transition whose Φ + n_w lands in the zone leaves the counter
// untouched. The phase-dependent decision probabilities live entirely
// inside the phase factors, so every term factorizes exactly.
//
// These terms are the model's only statement of which state a branch
// reaches and with what weight: Build materializes them, BuildShell keeps
// them implicit, and the regime and frequency-loop extensions compose
// them with one more factor.
func Terms(spec Spec) ([]Term, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	nd, nc, nm, mid := spec.Frame()
	drift := spec.Drift.Trim()

	// Data factors: A⁰ without a transition, A¹ with one.
	a0 := spmat.NewTriplet(nd, nd)
	a1 := spmat.NewTriplet(nd, nd)
	for r := 0; r < nd; r++ {
		pt := spec.TransProb(r)
		if 1-pt > 0 {
			a0.Add(r, spec.NextDataState(r, false), 1-pt)
		}
		if pt > 0 {
			a1.Add(r, spec.NextDataState(r, true), pt)
		}
	}

	// Counter factors: the steps of the dir walk whose overflow outcome
	// is ov.
	walk := func(dir, ov int) *spmat.CSR {
		tr := spmat.NewTriplet(nc, nc)
		for c := 0; c < nc; c++ {
			if next, o := counterAdvance(spec.CounterLen, c, dir); o == ov {
				tr.Add(c, next, 1)
			}
		}
		return tr.ToCSR()
	}

	lead := make([]float64, nm)
	lag := make([]float64, nm)
	null := make([]float64, nm)
	for mi := range lead {
		lead[mi], lag[mi], null[mi] = pdProbs(spec, float64(mi-mid)*spec.GridStep)
	}

	// phase returns diag(w)·S^shift (w nil: the identity diagonal) and its
	// wrapped entries.
	phase := func(w []float64, shift int) (s, wrapped *spmat.CSR) {
		tr := spmat.NewTriplet(nm, nm)
		tr.Reserve(nm * drift.Len())
		var wr *spmat.Triplet
		if spec.WrapPhase {
			wr = spmat.NewTriplet(nm, nm)
		}
		for mi := 0; mi < nm; mi++ {
			wi := 1.0
			if w != nil {
				wi = w[mi]
			}
			if wi == 0 {
				continue
			}
			drift.Support(func(_ float64, k int, pk float64) {
				mj := mi + shift + k
				switch {
				case !spec.WrapPhase:
					mj = min(max(mj, 0), nm-1)
				case mj < 0 || mj >= nm:
					mj = (mj%nm + nm) % nm
					wr.Add(mi, mj, wi*pk)
				}
				tr.Add(mi, mj, wi*pk)
			})
		}
		if wr != nil {
			wrapped = wr.ToCSR()
		}
		return tr.ToCSR(), wrapped
	}

	g := spec.correctionSteps()
	term := func(a, c *spmat.CSR, w []float64, overflow int) Term {
		s, wrapped := phase(w, -overflow*g)
		return Term{
			Term:     kron.Term{Coeff: 1, Factors: []*spmat.CSR{a, c, s}},
			Overflow: overflow,
			wrapped:  wrapped,
		}
	}
	noTrans, trans, idC := a0.ToCSR(), a1.ToCSR(), spmat.Identity(nc)
	terms := []Term{
		term(noTrans, idC, nil, 0),
		term(trans, walk(+1, 0), lead, 0),
		term(trans, walk(+1, +1), lead, +1),
		term(trans, walk(-1, 0), lag, 0),
		term(trans, walk(-1, -1), lag, -1),
	}
	if spec.PDDeadZone > 0 {
		terms = append(terms, term(trans, idC, null, 0))
	}
	return terms, nil
}

// descriptor collects the terms into a Kronecker descriptor.
func descriptor(terms []Term) (*kron.Descriptor, error) {
	kt := make([]kron.Term, len(terms))
	for i, t := range terms {
		kt[i] = t.Term
	}
	return kron.NewDescriptor(kt)
}

// BuildDescriptor returns the model's transition matrix as the Kronecker
// descriptor of its Terms, the form SolveKron runs on.
func (m *Model) BuildDescriptor() (*kron.Descriptor, error) {
	terms, err := Terms(m.Spec)
	if err != nil {
		return nil, err
	}
	return descriptor(terms)
}

// wrapSlips returns, per state, the probability that the transition
// leaving it wraps across the ±0.5 UI boundary: every term's wrapped
// phase entries, weighted by its data and counter factors and added
// branch by branch in term order. Nil for a saturating model.
func wrapSlips(terms []Term, n int) []float64 {
	if terms[0].wrapped == nil {
		return nil
	}
	out := make([]float64, n)
	for _, t := range terms {
		nc, _ := t.Factors[1].Dims()
		nm, _ := t.wrapped.Dims()
		cs := t.Factors[1].RowSums()
		for d, ad := range t.Factors[0].RowSums() {
			for c, cv := range cs {
				w := t.Coeff * ad * cv
				if w == 0 {
					continue
				}
				row := out[(d*nc+c)*nm:]
				for mi := 0; mi < nm; mi++ {
					_, vals := t.wrapped.Row(mi)
					for _, v := range vals {
						row[mi] += w * v
					}
				}
			}
		}
	}
	return out
}
