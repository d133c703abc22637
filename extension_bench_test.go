package cdrstoch

// Benchmarks for the model extensions beyond the paper's figures:
// second-order loops, regime modulation, spectral estimation and the
// parallel Monte Carlo runner. Indexed in DESIGN.md alongside the
// ablations.

import (
	"testing"

	"cdrstoch/internal/bitsim"
	"cdrstoch/internal/core"
	"cdrstoch/internal/dist"
	"cdrstoch/internal/experiments"
	"cdrstoch/internal/freqloop"
	"cdrstoch/internal/multigrid"
	"cdrstoch/internal/regime"
)

// BenchmarkFreqLoopSolve builds and solves the second-order loop at the
// configuration of examples/freqacquisition (F = 1).
func BenchmarkFreqLoopSolve(b *testing.B) {
	h := 1.0 / 32
	drift, err := dist.DriftPMF(dist.DriftSpec{Step: h, Max: 2 * h, Mean: 0.01, Shape: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	base := core.Spec{
		GridStep:          h,
		PhaseMax:          0.5,
		CorrectionStep:    2 * h,
		TransitionDensity: 0.5,
		MaxRunLength:      2,
		EyeJitter:         dist.NewGaussian(0, 0.06),
		Drift:             drift,
		CounterLen:        4,
		Threshold:         0.5,
	}
	for i := 0; i < b.N; i++ {
		m, err := freqloop.Build(freqloop.Spec{Base: base, FreqLen: 1, FreqStep: h})
		if err != nil {
			b.Fatal(err)
		}
		pi, _, err := m.Solve(1e-11, 500000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(m.BER(pi), "BER")
	}
}

// BenchmarkRegimeSolve builds and solves the interference-burst model of
// examples/interference.
func BenchmarkRegimeSolve(b *testing.B) {
	h := 1.0 / 32
	base := core.Spec{
		GridStep:          h,
		PhaseMax:          0.625,
		CorrectionStep:    1.0 / 16,
		TransitionDensity: 0.5,
		MaxRunLength:      4,
		CounterLen:        6,
		Threshold:         0.5,
	}
	drift, err := dist.DriftPMF(dist.DriftSpec{Step: h, Max: 2 * h, Mean: 0.0005, Shape: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	spec := regime.Spec{
		Base: base,
		Regimes: []regime.Regime{
			{Name: "quiet", EyeJitter: dist.NewGaussian(0, 0.04), Drift: drift},
			{Name: "burst", EyeJitter: dist.NewGaussian(0, 0.12), Drift: drift},
		},
		Switch: [][]float64{
			{1 - 1.0/600, 1.0 / 600},
			{1.0 / 30, 1 - 1.0/30},
		},
	}
	for i := 0; i < b.N; i++ {
		m, err := regime.Build(spec)
		if err != nil {
			b.Fatal(err)
		}
		pi, _, err := m.Solve(multigrid.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(m.BER(pi), "BER")
	}
}

// BenchmarkPhaseNoiseSpectrum measures the autocovariance-based spectral
// estimate at 32 frequencies with a 1024-lag window.
func BenchmarkPhaseNoiseSpectrum(b *testing.B) {
	m := buildOrFatal(b, experiments.Fig5Spec(8))
	a, err := m.Solve(core.SolveOptions{})
	if err != nil {
		b.Fatal(err)
	}
	freqs := make([]float64, 32)
	for i := range freqs {
		freqs[i] = 0.5 * float64(i+1) / 32
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PhaseNoiseSpectrum(a.Pi, 1024, freqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelMonteCarlo compares the serial and parallel Monte
// Carlo runners on the same workload.
func BenchmarkParallelMonteCarlo(b *testing.B) {
	spec := experiments.Fig4Spec(true)
	for _, workers := range []int{1, 4} {
		name := map[int]string{1: "serial", 4: "workers4"}[workers]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bitsim.RunParallel(bitsim.Config{
					Spec: spec, Bits: 400000, Seed: int64(i + 1),
				}, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
