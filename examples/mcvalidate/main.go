// Mcvalidate cross-checks the Markov-chain analysis against brute-force
// Monte Carlo simulation — and then makes the paper's core argument
// quantitative: at SONET-class BER targets the simulation route needs
// ~1e14 bits while the analysis route solves the same model in seconds.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"cdrstoch/internal/bitsim"
	"cdrstoch/internal/core"
	"cdrstoch/internal/dist"
	"cdrstoch/internal/experiments"
	"cdrstoch/internal/obs"
)

func main() {
	reg := obs.NewRegistry()

	// Part 1: a deliberately noisy model whose BER (~1e-2) a short Monte
	// Carlo run can resolve. Both routes must agree.
	h := 1.0 / 16
	drift, err := dist.DriftPMF(dist.DriftSpec{Step: h, Max: 2 * h, Mean: h / 8, Shape: 0.3})
	if err != nil {
		log.Fatal(err)
	}
	noisy := core.Spec{
		GridStep:          h,
		PhaseMax:          0.5,
		CorrectionStep:    2 * h,
		TransitionDensity: 0.5,
		MaxRunLength:      3,
		EyeJitter:         dist.NewGaussian(0, 0.15),
		Drift:             drift,
		CounterLen:        3,
		Threshold:         0.5,
	}
	model, err := core.Build(noisy)
	if err != nil {
		log.Fatal(err)
	}
	reg.Gauge("model.states").Set(float64(model.NumStates()))
	t0 := time.Now()
	solveDone := reg.Histogram("analysis.solve_ms").Time()
	pi, err := model.SolveDirect()
	solveDone()
	if err != nil {
		log.Fatal(err)
	}
	analytic := model.BER(pi)
	tAnalysis := time.Since(t0)

	t0 = time.Now()
	mcDone := reg.Histogram("montecarlo_ms").Time()
	mc, err := bitsim.Run(bitsim.Config{Spec: noisy, Bits: 2000000, Seed: 1, Metrics: reg})
	mcDone()
	if err != nil {
		log.Fatal(err)
	}
	tMC := time.Since(t0)

	fmt.Println("High-noise cross-validation (BER large enough to simulate):")
	fmt.Printf("  analysis:    BER = %.4e   (%v)\n", analytic, tAnalysis)
	fmt.Printf("  monte carlo: %v   (%v)\n", mc, tMC)
	inside := analytic >= mc.CILow && analytic <= mc.CIHigh
	fmt.Printf("  analysis inside MC 95%% interval: %v\n\n", inside)

	// Part 2: the low-BER regime. The analysis solves it directly; the
	// simulation budget is astronomical.
	panelDone := reg.Histogram("analysis.panel_ms").Time()
	panel, err := experiments.RunPanel(experiments.Fig4Spec(false))
	panelDone()
	if err != nil {
		log.Fatal(err)
	}
	reg.Counter("multigrid.cycles").Add(int64(panel.Analysis.Multigrid.Cycles))
	fmt.Println("Low-noise regime (paper Figure 4, top panel):")
	fmt.Printf("  analysis BER = %.3e in %v (%d states)\n",
		panel.Analysis.BER, panel.Analysis.SolveTime, panel.Model.NumStates())
	target := panel.Analysis.BER
	if target < 1e-14 {
		target = 1e-14
	}
	bits, err := bitsim.BitsForTarget(target, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	perBit := tMC.Seconds() / float64(mc.Bits)
	years := bits * perBit / (365 * 24 * 3600)
	fmt.Printf("  Monte Carlo would need ≈ %.2e bits to resolve it to ±10%%\n", bits)
	fmt.Printf("  at the measured %.1e s/bit that is ≈ %.1e years of simulation\n", perBit, years)
	fmt.Println("\nPaper, §Introduction: such specifications \"are practically impossible")
	fmt.Println("to verify through straightforward simulation\".")

	// The same comparison, as recorded work counters: multigrid cycles and
	// solve time on the analysis side against simulated bits and wall time
	// on the Monte Carlo side.
	fmt.Println("\nMetrics snapshot:")
	if err := reg.Snapshot().WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
