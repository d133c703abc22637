package core

import (
	"math"
	"testing"

	"cdrstoch/internal/dist"
)

func deadZoneSpec(t testing.TB, delta float64) Spec {
	t.Helper()
	s := tinySpec(t)
	s.PDDeadZone = delta
	return s
}

func TestPDDeadZoneValidation(t *testing.T) {
	if err := deadZoneSpec(t, 0.1).Validate(); err != nil {
		t.Fatalf("valid dead zone rejected: %v", err)
	}
	if err := deadZoneSpec(t, -0.01).Validate(); err == nil {
		t.Error("negative dead zone accepted")
	}
	if err := deadZoneSpec(t, 0.5).Validate(); err == nil {
		t.Error("dead zone at threshold accepted")
	}
}

func TestPDProbsSumToOne(t *testing.T) {
	m, err := Build(deadZoneSpec(t, 0.08))
	if err != nil {
		t.Fatal(err)
	}
	for mi := 0; mi < m.M; mi++ {
		lead, lag, null := pdProbs(m.Spec, m.PhaseValue(mi))
		if lead < 0 || lag < 0 || null < 0 {
			t.Fatalf("negative decision prob at %d", mi)
		}
		if math.Abs(lead+lag+null-1) > 1e-12 {
			t.Fatalf("decision probs sum to %g at phi=%g", lead+lag+null, m.PhaseValue(mi))
		}
	}
	// Zero dead zone: null vanishes.
	m0 := buildTiny(t)
	for mi := 0; mi < m0.M; mi++ {
		_, _, null := pdProbs(m0.Spec, m0.PhaseValue(mi))
		if null != 0 {
			t.Fatalf("nonzero null prob without dead zone")
		}
	}
}

func TestDeadZoneModelStochasticAndErgodic(t *testing.T) {
	m, err := Build(deadZoneSpec(t, 0.08))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.P.CheckStochastic(1e-9); err != nil {
		t.Fatal(err)
	}
	ch, err := m.Chain()
	if err != nil {
		t.Fatal(err)
	}
	if !ch.IsErgodic() {
		t.Fatal("dead-zone model not ergodic")
	}
}

// TestDeadZoneReducesCorrectionActivity: inside the dead zone the counter
// holds, so the mux activity must drop relative to the ideal PD.
func TestDeadZoneReducesCorrectionActivity(t *testing.T) {
	ideal, err := Build(deadZoneSpec(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	dz, err := Build(deadZoneSpec(t, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	piI, err := ideal.SolveDirect()
	if err != nil {
		t.Fatal(err)
	}
	piD, err := dz.SolveDirect()
	if err != nil {
		t.Fatal(err)
	}
	actI := ideal.CorrectionActivity(piI)
	actD := dz.CorrectionActivity(piD)
	if actD.UpRate+actD.DownRate >= actI.UpRate+actI.DownRate {
		t.Fatalf("dead zone did not reduce activity: %g vs %g",
			actD.UpRate+actD.DownRate, actI.UpRate+actI.DownRate)
	}
	// Equilibrium still balances the drift.
	driftMean := dz.Spec.Drift.Mean()
	if math.Abs(actD.NetUIPerBit+driftMean) > 0.25*driftMean {
		t.Fatalf("net correction %g does not balance drift %g", actD.NetUIPerBit, driftMean)
	}
}

func TestDeadZoneDescriptorMatchesDirect(t *testing.T) {
	m, err := Build(deadZoneSpec(t, 0.08))
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.BuildDescriptor()
	if err != nil {
		t.Fatal(err)
	}
	if d.NumTerms() != 6 {
		t.Fatalf("terms = %d, want 6 with a dead zone", d.NumTerms())
	}
	ref, _ := referenceChain(t, m.Spec)
	assertSameMatrix(t, m.P, ref, 1e-12)
}

func TestDeadZoneNetworkMatchesDirect(t *testing.T) {
	s := deadZoneSpec(t, 1.0/8) // dead zone on grid multiples for exactness
	nwPMF, err := dist.Quantize(dist.NewGaussian(0, 0.1), s.GridStep, -4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.EyeJitter = nwPMF
	m, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	net, err := m.AsNetwork(nwPMF)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := net.BuildChain()
	if err != nil {
		t.Fatal(err)
	}
	toModel := func(tuple []int) int { return m.StateIndex(tuple[0], tuple[2], tuple[3]) }
	for i, tuple := range ch.States {
		from := toModel(tuple)
		netRow := map[int]float64{}
		cols, vals := ch.P.Row(i)
		for k, c := range cols {
			netRow[toModel(ch.States[c])] += vals[k]
		}
		dcols, dvals := m.P.Row(from)
		if len(dcols) != len(netRow) {
			t.Fatalf("state %v: nnz %d vs %d", tuple, len(dcols), len(netRow))
		}
		for k, j := range dcols {
			if math.Abs(netRow[j]-dvals[k]) > 1e-12 {
				t.Fatalf("state %v -> %d: %g vs %g", tuple, j, dvals[k], netRow[j])
			}
		}
	}
}

// TestDeadZoneBERTradeOff: a moderate dead zone changes the BER smoothly
// and keeps it a probability; a huge dead zone effectively opens the loop
// and degrades the BER (drift is no longer tracked).
func TestDeadZoneBERTradeOff(t *testing.T) {
	ber := func(delta float64) float64 {
		m, err := Build(deadZoneSpec(t, delta))
		if err != nil {
			t.Fatal(err)
		}
		pi, err := m.SolveDirect()
		if err != nil {
			t.Fatal(err)
		}
		return m.BER(pi)
	}
	b0 := ber(0)
	bBig := ber(0.4)
	if b0 <= 0 || bBig <= 0 || b0 >= 1 || bBig >= 1 {
		t.Fatalf("BERs out of range: %g %g", b0, bBig)
	}
	if bBig <= b0 {
		t.Fatalf("near-open-loop dead zone did not degrade BER: %g vs %g", bBig, b0)
	}
}
