package core

import (
	"math"
	"testing"

	"cdrstoch/internal/dist"
)

// The wrap-model tests live here; the Monte Carlo cross-check lives in
// internal/bitsim to avoid an import cycle.

func wrapSpec(t testing.TB) Spec {
	t.Helper()
	s := tinySpec(t)
	s.WrapPhase = true
	s.Threshold = 0.5
	return s
}

func TestWrapSpecValidation(t *testing.T) {
	s := wrapSpec(t)
	if err := s.Validate(); err != nil {
		t.Fatalf("valid wrap spec rejected: %v", err)
	}
	bad := s
	bad.GridStep = 1.0 / 10 // 10 cells per UI is fine; 1/0.3 is not
	bad.GridStep = 0.3
	if err := bad.Validate(); err == nil {
		t.Error("non-integer cell count accepted")
	}
	bad = s
	bad.Threshold = 0.6
	if err := bad.Validate(); err == nil {
		t.Error("threshold beyond half-UI accepted")
	}
}

func TestWrapModelGeometry(t *testing.T) {
	m, err := Build(wrapSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if m.M != 16 {
		t.Fatalf("M = %d, want 16 cells per UI", m.M)
	}
	if m.PhaseValue(m.mid) != 0 {
		t.Error("mid phase not zero")
	}
	if m.PhaseValue(0) != -0.5 {
		t.Errorf("lowest phase = %g, want -0.5", m.PhaseValue(0))
	}
	// PhaseIndex wraps: +0.5 aliases to −0.5.
	if m.PhaseIndex(0.5) != 0 {
		t.Errorf("PhaseIndex(0.5) = %d, want 0", m.PhaseIndex(0.5))
	}
	if m.PhaseIndex(-0.5-1.0/16) != m.M-1 {
		t.Errorf("wrap below: %d", m.PhaseIndex(-0.5-1.0/16))
	}
	if err := m.P.CheckStochastic(1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestWrapModelErgodic(t *testing.T) {
	m, err := Build(wrapSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := m.Chain()
	if err != nil {
		t.Fatal(err)
	}
	if !ch.IsErgodic() {
		t.Fatal("wrap model not ergodic")
	}
}

func TestWrapSlipRatePositive(t *testing.T) {
	m, err := Build(wrapSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	pi, err := m.SolveDirect()
	if err != nil {
		t.Fatal(err)
	}
	rate, mtbs, err := m.WrapSlipRate(pi)
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 || rate >= 1 {
		t.Fatalf("slip rate = %g", rate)
	}
	if math.Abs(mtbs-1/rate) > 1e-9*mtbs {
		t.Fatalf("MTBS inconsistent: %g vs %g", mtbs, 1/rate)
	}
}

func TestWrapSlipRateRejectsSaturatingModel(t *testing.T) {
	m := buildTiny(t)
	pi, err := m.SolveDirect()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.WrapSlipRate(pi); err == nil {
		t.Error("saturating model accepted")
	}
}

// TestWrapVsSaturateLowNoise: with noise small enough that the boundary is
// rarely visited, wrap and saturating models agree on the BER.
func TestWrapVsSaturateLowNoise(t *testing.T) {
	sat := tinySpec(t)
	sat.EyeJitter = dist.NewGaussian(0, 0.03)
	wrp := sat
	wrp.WrapPhase = true
	mSat, err := Build(sat)
	if err != nil {
		t.Fatal(err)
	}
	mWrp, err := Build(wrp)
	if err != nil {
		t.Fatal(err)
	}
	piSat, err := mSat.SolveDirect()
	if err != nil {
		t.Fatal(err)
	}
	piWrp, err := mWrp.SolveDirect()
	if err != nil {
		t.Fatal(err)
	}
	bSat, bWrp := mSat.BER(piSat), mWrp.BER(piWrp)
	// The tiny model's coarse grid keeps some boundary traffic, so the two
	// boundary treatments retain a moderate residual difference; they must
	// nevertheless agree well within a factor of two.
	if rel := math.Abs(bSat-bWrp) / bSat; rel > 0.5 {
		t.Fatalf("wrap vs saturate BER: %g vs %g (rel %g)", bWrp, bSat, rel)
	}
}

// TestWrapSlipMatchesSaturateFlux: the wrap slip rate and the saturating
// model's entry flux into the slip set measure the same physical event and
// must agree within a small factor.
func TestWrapSlipMatchesSaturateFlux(t *testing.T) {
	sat := tinySpec(t)
	wrp := sat
	wrp.WrapPhase = true
	mSat, err := Build(sat)
	if err != nil {
		t.Fatal(err)
	}
	mWrp, err := Build(wrp)
	if err != nil {
		t.Fatal(err)
	}
	piSat, err := mSat.SolveDirect()
	if err != nil {
		t.Fatal(err)
	}
	piWrp, err := mWrp.SolveDirect()
	if err != nil {
		t.Fatal(err)
	}
	flux, err := mSat.SlipStats(piSat)
	if err != nil {
		t.Fatal(err)
	}
	rate, _, err := mWrp.WrapSlipRate(piWrp)
	if err != nil {
		t.Fatal(err)
	}
	ratio := rate / flux.Flux
	if ratio < 0.2 || ratio > 5 {
		t.Fatalf("wrap rate %g vs saturate flux %g (ratio %g)", rate, flux.Flux, ratio)
	}
}

func TestWrapDescriptorMatchesDirect(t *testing.T) {
	m, err := Build(wrapSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.BuildDescriptor()
	if err != nil {
		t.Fatal(err)
	}
	if d.Dim() != m.NumStates() || d.NumTerms() != 5 {
		t.Fatalf("descriptor dim %d with %d terms, want %d with 5", d.Dim(), d.NumTerms(), m.NumStates())
	}
	ref, _ := referenceChain(t, m.Spec)
	assertSameMatrix(t, m.P, ref, 1e-12)
}
