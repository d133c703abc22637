// Command cdrsim runs the Monte Carlo baseline — the "straightforward,
// simulation based" approach the paper contrasts against — and optionally
// compares the estimate with the Markov-chain analysis of the same model.
//
// Example:
//
//	cdrsim -preset fig4-high -bits 5000000 -compare
package main

import (
	"flag"
	"fmt"
	"os"

	"cdrstoch/internal/bitsim"
	"cdrstoch/internal/cliutil"
	"cdrstoch/internal/core"
)

func main() {
	fs := flag.NewFlagSet("cdrsim", flag.ExitOnError)
	sf := cliutil.Bind(fs)
	of := cliutil.BindObs(fs)
	bits := fs.Int64("bits", 1000000, "bit periods to simulate after warmup")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 1,
		"parallel workers for both the Monte Carlo streams and the solver kernels (0 = GOMAXPROCS)")
	compare := fs.Bool("compare", false, "also run the Markov-chain analysis and compare")
	budget := fs.Float64("budget-ber", 0, "print the bits needed to resolve this BER at 10% and exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *budget > 0 {
		n, err := bitsim.BitsForTarget(*budget, 0.1)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Resolving BER %.1e to ±10%% at 95%% confidence needs ≈ %.2e simulated bits.\n",
			*budget, n)
		return
	}

	obsrv, err := of.Setup()
	if err != nil {
		fatal(err)
	}
	spec, err := sf.Spec()
	if err != nil {
		fatal(err)
	}
	mcDone := obsrv.Registry.Timer("montecarlo").Time()
	endMC := obsrv.Run.Span("cdrsim.montecarlo")
	res, err := bitsim.RunParallel(bitsim.Config{
		Spec: spec, Bits: *bits, Seed: *seed,
		Ctx: obsrv.Context(), Metrics: obsrv.Registry,
	}, *workers)
	endMC()
	mcDone()
	if err != nil {
		fatal(err)
	}
	fmt.Println("Monte Carlo:", res)
	fmt.Printf("MeanTimeBetweenSlips: %.3e bits\n", res.MeanTimeBetweenSlips)

	if *compare {
		m, err := core.Build(spec)
		if err != nil {
			fatal(err)
		}
		opt := core.SolveOptions{}
		opt.Multigrid.Ctx = obsrv.Context()
		opt.Multigrid.Workers = *workers
		solveDone := obsrv.Registry.Timer("solve").Time()
		endSolve := obsrv.Run.Span("cdrsim.solve")
		a, err := m.Solve(opt)
		endSolve()
		solveDone()
		if err != nil {
			fatal(err)
		}
		obsrv.Registry.Counter("multigrid.cycles").Add(int64(a.Multigrid.Cycles))
		slip, err := m.SlipStats(a.Pi)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Analysis:    BER=%.3e  MeanTimeBetweenSlips=%.3e bits  (%d states, %d cycles)\n",
			a.BER, slip.MeanTimeBetween, m.NumStates(), a.Multigrid.Cycles)
		switch {
		case a.BER >= res.CILow && a.BER <= res.CIHigh:
			fmt.Println("Agreement:   analysis BER inside the Monte Carlo 95% interval")
		default:
			fmt.Println("Agreement:   analysis BER outside the Monte Carlo 95% interval",
				"(expected when the BER is too small for the simulated bit count)")
		}
	}
	if err := obsrv.Close(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cdrsim:", err)
	os.Exit(1)
}
