package cdrstoch

// End-to-end integration test: one pass through the whole pipeline the
// way a user would drive it — spec → build → structural checks → solve →
// every performance measure → alternative backends → serialization. Each
// stage's output feeds the next, so a regression anywhere in the stack
// surfaces here even if the unit tests of the neighboring package missed
// it.

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"cdrstoch/internal/bitsim"
	"cdrstoch/internal/core"
	"cdrstoch/internal/dist"
	"cdrstoch/internal/experiments"
	"cdrstoch/internal/markov"
	"cdrstoch/internal/pdd"
	"cdrstoch/internal/spmat"
)

func TestEndToEndPipeline(t *testing.T) {
	// A mid-sized model: large enough to exercise the multigrid hierarchy,
	// small enough for the dense cross-checks.
	h := 1.0 / 32
	drift, err := dist.DriftPMF(dist.DriftSpec{Step: h, Max: 2 * h, Mean: 0.0005, Shape: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	spec := core.Spec{
		GridStep:          h,
		PhaseMax:          0.625,
		CorrectionStep:    1.0 / 16,
		TransitionDensity: 0.5,
		MaxRunLength:      4,
		EyeJitter:         dist.NewGaussian(0, 0.08),
		Drift:             drift,
		CounterLen:        4,
		Threshold:         0.5,
	}

	// Build and structure.
	m, err := core.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := m.Chain()
	if err != nil {
		t.Fatal(err)
	}
	if !ch.IsErgodic() {
		t.Fatal("model not ergodic")
	}

	// Multigrid solve cross-checked against GTH and GMRES.
	a, err := m.Solve(core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := m.SolveDirect()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if math.Abs(a.Pi[i]-ref[i]) > 1e-9 {
			t.Fatalf("multigrid vs GTH at %d: %g vs %g", i, a.Pi[i], ref[i])
		}
	}

	// Measures: all finite, consistent probabilities.
	if a.BER <= 0 || a.BER >= 1 {
		t.Fatalf("BER = %g", a.BER)
	}
	slip, err := m.SlipStats(a.Pi)
	if err != nil || slip.Flux <= 0 {
		t.Fatalf("slip: %v %+v", err, slip)
	}
	open, err := m.EyeOpening(a.Pi, 100*a.BER)
	if err != nil || open <= 0 {
		t.Fatalf("eye: %v %g", err, open)
	}
	fer, err := m.FrameErrorRate(a.Pi, 1024)
	if err != nil || fer <= a.BER || fer >= 1 {
		t.Fatalf("FER: %v %g (BER %g)", err, fer, a.BER)
	}
	psd, err := m.PhaseNoiseSpectrum(a.Pi, 256, []float64{0.01, 0.5})
	if err != nil || psd[0] <= psd[1] {
		t.Fatalf("spectrum: %v %v", err, psd)
	}

	// Kronecker backend agrees on the stationary vector.
	d, err := m.BuildDescriptor()
	if err != nil {
		t.Fatal(err)
	}
	kch, err := markov.NewOperator(d)
	if err != nil {
		t.Fatal(err)
	}
	kres, err := kch.StationaryPower(markov.Options{Tol: 1e-11, MaxIter: 200000, Damping: 0.9})
	if err != nil {
		t.Fatalf("kron power: %v", err)
	}
	for i := range ref {
		if math.Abs(kres.Pi[i]-ref[i]) > 1e-7 {
			t.Fatalf("kron vs GTH at %d: %g vs %g", i, kres.Pi[i], ref[i])
		}
	}

	// Matrix-free end to end: shell build + implicit multigrid reproduces
	// the explicit analysis without ever forming the TPM.
	shell, err := core.BuildShell(spec)
	if err != nil {
		t.Fatal(err)
	}
	ka, err := shell.SolveKron(core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if math.Abs(ka.Pi[i]-ref[i]) > 1e-9 {
			t.Fatalf("SolveKron vs GTH at %d: %g vs %g", i, ka.Pi[i], ref[i])
		}
	}

	// Monte Carlo agrees within its interval.
	mc, err := bitsim.RunParallel(bitsim.Config{Spec: spec, Bits: 600000, Seed: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	half := (mc.CIHigh - mc.CILow) / 2
	if math.Abs(mc.BER-a.BER) > 3*half {
		t.Fatalf("MC %.3e vs analysis %.3e (±%.1e)", mc.BER, a.BER, half)
	}

	// Serialization round trip of the TPM.
	var buf bytes.Buffer
	if err := m.P.WriteMatrixMarket(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := spmat.ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != m.P.NNZ() {
		t.Fatalf("round trip nnz %d vs %d", back.NNZ(), m.P.NNZ())
	}

	// Decision-diagram compression of the stationary vector.
	diag, err := pdd.FromVector(a.Pi, 1e-15)
	if err != nil {
		t.Fatal(err)
	}
	if s := diag.Sum(); math.Abs(s-1) > 1e-9 {
		t.Fatalf("diagram mass %g", s)
	}

	// Figure-panel rendering produces the paper's annotation format.
	panel := &experiments.Panel{Model: m, Analysis: a, Slip: slip}
	var ann bytes.Buffer
	if err := panel.Annotate(&ann); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ann.String(), "COUNTER: 4") {
		t.Fatalf("annotation: %q", ann.String())
	}
}
