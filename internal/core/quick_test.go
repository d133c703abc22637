package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
	"testing/quick"

	"cdrstoch/internal/dist"
)

// randomSpec draws a small random-but-valid specification.
func randomSpec(rng *rand.Rand) (Spec, error) {
	denoms := []int{8, 16, 32}
	h := 1.0 / float64(denoms[rng.Intn(len(denoms))])
	corrMult := 1 + rng.Intn(3)
	maxMult := 1 + rng.Intn(3)
	maxNr := float64(maxMult) * h
	drift, err := dist.DriftPMF(dist.DriftSpec{
		Step:  h,
		Max:   maxNr,
		Mean:  (rng.Float64()*1.6 - 0.8) * maxNr,
		Shape: 0.1 + 0.8*rng.Float64(),
	})
	if err != nil {
		return Spec{}, err
	}
	s := Spec{
		GridStep:          h,
		PhaseMax:          0.5 + float64(rng.Intn(3))*2*h,
		CorrectionStep:    float64(corrMult) * h,
		TransitionDensity: 0.1 + 0.9*rng.Float64(),
		MaxRunLength:      rng.Intn(4), // 0..3
		EyeJitter:         dist.NewGaussian(0, 0.02+0.15*rng.Float64()),
		Drift:             drift,
		CounterLen:        1 + rng.Intn(4),
		Threshold:         0.5,
		WrapPhase:         rng.Intn(2) == 0,
	}
	return s, s.Validate()
}

// Property: every random valid spec assembles into a stochastic TPM whose
// BER under any distribution is a probability and whose marginals are
// consistent.
func TestQuickBuildInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec, err := randomSpec(rng)
		if err != nil {
			// Rare invalid draws (e.g. drift mean at the bound) are not
			// failures of the property.
			return true
		}
		m, err := Build(spec)
		if err != nil {
			return false
		}
		if err := m.P.CheckStochastic(1e-9); err != nil {
			return false
		}
		// Uniform distribution: marginals and BER sanity.
		n := m.NumStates()
		pi := make([]float64, n)
		for i := range pi {
			pi[i] = 1 / float64(n)
		}
		ber := m.BER(pi)
		if ber < 0 || ber > 1 || math.IsNaN(ber) {
			return false
		}
		for _, marg := range [][]float64{m.PhaseMarginal(pi), m.CounterMarginal(pi), m.DataMarginal(pi)} {
			sum := 0.0
			for _, v := range marg {
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: for random small specs the materialized descriptor — Build's
// P — agrees to 1e−12 with the chain of the paper's four-FSM network
// (AsNetwork + BuildChain) on every reachable state, with n_w quantized
// onto the phase grid on both sides. Every combination of boundary model,
// dead zone (on grid multiples, so decisions are exact) and MaxRunLength 0
// is drawn.
func TestQuickDescriptorEquivalence(t *testing.T) {
	for variant := 0; variant < 8; variant++ {
		wrap, deadZone, noRunCap := variant&1 != 0, variant&2 != 0, variant&4 != 0
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			spec, err := randomSpec(rng)
			if err != nil || spec.GridStep < 1.0/16 {
				return true // invalid draw, or too fine to keep the network cheap
			}
			spec.WrapPhase = wrap
			if deadZone {
				spec.PDDeadZone = float64(1+rng.Intn(2)) * spec.GridStep
			}
			if noRunCap {
				spec.MaxRunLength = 0
			}
			nw, err := dist.Quantize(dist.NewGaussian(0, 0.05+0.1*rng.Float64()), spec.GridStep, -4, 4)
			if err != nil {
				return false
			}
			spec.EyeJitter = nw
			if spec.Validate() != nil {
				return true
			}
			m, err := Build(spec)
			if err != nil {
				t.Logf("variant %d seed %d: %v", variant, seed, err)
				return false
			}
			if err := networkMatches(m, nw); err != nil {
				t.Logf("variant %d seed %d: %v", variant, seed, err)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
			t.Fatalf("variant %d (wrap %v, dead zone %v, MaxRunLength 0 %v): %v", variant, wrap, deadZone, noRunCap, err)
		}
	}
}

// networkMatches compares every reachable state's row of the network
// chain with the same row of m.P.
func networkMatches(m *Model, nw *dist.PMF) error {
	net, err := m.AsNetwork(nw)
	if err != nil {
		return err
	}
	ch, err := net.BuildChain()
	if err != nil {
		return err
	}
	// Machine registration order: data, pd, counter, phase.
	toModel := func(tuple []int) int { return m.StateIndex(tuple[0], tuple[2], tuple[3]) }
	for i, tuple := range ch.States {
		netRow := map[int]float64{}
		cols, vals := ch.P.Row(i)
		for k, c := range cols {
			netRow[toModel(ch.States[c])] += vals[k]
		}
		dcols, dvals := m.P.Row(toModel(tuple))
		if len(dcols) != len(netRow) {
			return fmt.Errorf("state %v: nnz %d (Build) vs %d (network)", tuple, len(dcols), len(netRow))
		}
		for k, j := range dcols {
			if math.Abs(netRow[j]-dvals[k]) > 1e-12 {
				return fmt.Errorf("state %v -> %d: Build %g vs network %g", tuple, j, dvals[k], netRow[j])
			}
		}
	}
	return nil
}

// TestEquationOneRecovery: the paper's equation (1) — the memoryless
// bang-bang loop Φ' = Φ − G·sgn(Φ + n_w) + n_r — is the special case
// CounterLen = 1 with a transition every bit. The model must collapse to
// one data state and one counter state, and every transition must move
// the phase by exactly −G·sgn(Φ + n_w) + n_r.
func TestEquationOneRecovery(t *testing.T) {
	h := 1.0 / 16
	drift, err := dist.DriftPMF(dist.DriftSpec{Step: h, Max: h, Mean: 0, Shape: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		GridStep:          h,
		PhaseMax:          0.5,
		CorrectionStep:    h,
		TransitionDensity: 1, // a transition every bit: PD always active
		MaxRunLength:      0,
		EyeJitter:         dist.NewGaussian(0, 0.05),
		Drift:             drift,
		CounterLen:        1,
		Threshold:         0.5,
	}
	m, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m.D != 1 || m.C != 1 {
		t.Fatalf("D=%d C=%d, want 1/1", m.D, m.C)
	}
	// Every row: the support is {Φ − G + k·h} ∪ {Φ + G + k·h} clamped,
	// weighted by the sign probabilities and the drift.
	for mi := 0; mi < m.M; mi++ {
		phi := m.PhaseValue(mi)
		pLead := dist.TailAbove(spec.EyeJitter, -phi)
		cols, vals := m.P.Row(m.StateIndex(0, 0, mi))
		got := map[int]float64{}
		for k, c := range cols {
			got[c] += vals[k]
		}
		want := map[int]float64{}
		acc := func(baseShift int, w float64) {
			spec.Drift.Support(func(_ float64, k int, pk float64) {
				mj := mi + baseShift + k
				if mj < 0 {
					mj = 0
				}
				if mj >= m.M {
					mj = m.M - 1
				}
				want[m.StateIndex(0, 0, mj)] += w * pk
			})
		}
		acc(-1, pLead)   // sgn > 0: retard by G
		acc(+1, 1-pLead) // sgn ≤ 0: advance by G
		if len(got) != len(want) {
			t.Fatalf("phi=%g: support %d vs %d", phi, len(got), len(want))
		}
		for idx, w := range want {
			if math.Abs(got[idx]-w) > 1e-12 {
				t.Fatalf("phi=%g -> %d: %g vs %g", phi, idx, got[idx], w)
			}
		}
	}
}

// TestLargeModelSolve exercises a ~10^5-state model end to end. It runs
// only when CDRSTOCH_LARGE=1 to keep default test times sane; with
// CDRSTOCH_LARGE=1 and -timeout raised it demonstrates the paper's
// large-problem capability on commodity hardware.
func TestLargeModelSolve(t *testing.T) {
	if os.Getenv("CDRSTOCH_LARGE") != "1" {
		t.Skip("set CDRSTOCH_LARGE=1 to run the large-model solve")
	}
	h := 1.0 / 512
	drift, err := dist.DriftPMF(dist.DriftSpec{Step: h, Max: 2 * h, Mean: 0.0002, Shape: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		GridStep:          h,
		PhaseMax:          0.75,
		CorrectionStep:    1.0 / 16,
		TransitionDensity: 0.5,
		MaxRunLength:      4,
		EyeJitter:         dist.NewGaussian(0, 0.08),
		Drift:             drift,
		CounterLen:        8,
		Threshold:         0.5,
	}
	m, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("large model: %d states, %d nnz, formed in %v", m.NumStates(), m.P.NNZ(), m.FormTime)
	a, err := m.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("solved: BER=%.3e cycles=%d in %v", a.BER, a.Multigrid.Cycles, a.SolveTime)
	if a.BER <= 0 || a.BER >= 1 {
		t.Fatalf("BER = %g", a.BER)
	}
}
