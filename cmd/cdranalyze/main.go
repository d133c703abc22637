// Command cdranalyze performs a single-point CDR performance analysis and
// prints the paper's figure-panel annotations (Figures 4 and 5): counter
// length, noise levels, BER, state-space size, multigrid cycle count and
// timings, optionally followed by the stationary density series as CSV.
//
// Examples:
//
//	cdranalyze -preset fig4-high
//	cdranalyze -counter 8 -stdnw 0.09 -csv > panel.csv
//	cdranalyze -preset base -dot          # Figure 2 model topology
//	cdranalyze -preset base -slip         # cycle-slip statistics
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"cdrstoch/internal/cliutil"
	"cdrstoch/internal/core"
	"cdrstoch/internal/dist"
	"cdrstoch/internal/experiments"
	"cdrstoch/internal/obs/cost"
)

func main() {
	fs := flag.NewFlagSet("cdranalyze", flag.ExitOnError)
	sf := cliutil.Bind(fs)
	of := cliutil.BindObs(fs)
	workers := cliutil.BindWorkers(fs)
	csv := fs.Bool("csv", false, "emit the phase and phase+n_w density series as CSV")
	dot := fs.Bool("dot", false, "print the FSM network (Figure 2) in Graphviz dot and exit")
	slip := fs.Bool("slip", false, "report cycle-slip statistics")
	describe := fs.Bool("describe", false, "print model dimensions before solving")
	bathtub := fs.Int("bathtub", 0, "emit an N-point bathtub curve (offset_ui,ber) as CSV")
	eyeAt := fs.Float64("eye-at", 0, "report the eye opening at this BER target")
	costRep := fs.Bool("cost", false, "print the solve's cost report (SolveReport JSON) to stderr")
	backend := fs.String("backend", "explicit", "solve backend: explicit (assemble the TPM) or kron (matrix-free Kronecker descriptor)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}

	obsrv, err := of.Setup()
	if err != nil {
		fatal(err)
	}

	spec, err := sf.Spec()
	if err != nil {
		fatal(err)
	}
	kron := false
	switch *backend {
	case "explicit":
	case "kron":
		kron = true
	default:
		fatal(fmt.Errorf("unknown -backend %q (want explicit or kron)", *backend))
	}
	buildDone := obsrv.Registry.Histogram("build_ms").Time()
	endBuild := obsrv.Run.Span("cdranalyze.build")
	var model *core.Model
	if kron {
		model, err = core.BuildShell(spec)
	} else {
		model, err = core.Build(spec)
	}
	endBuild()
	buildDone()
	if err != nil {
		fatal(err)
	}
	obsrv.Registry.Gauge("model.states").Set(float64(model.NumStates()))
	if model.P != nil {
		obsrv.Registry.Gauge("model.nnz").Set(float64(model.P.NNZ()))
	} else {
		obsrv.Registry.Gauge("model.nnz").Set(float64(model.Desc.NNZ()))
	}
	if *describe {
		fmt.Println(model.Describe())
	}
	if *dot {
		// Quantize the eye jitter so the network has a finite alphabet;
		// ±4σ at the grid step loses <1e-4 of the mass per tail fold.
		k := int(4*spec.EyeJitter.Std()/spec.GridStep) + 1
		pmf, err := dist.Quantize(spec.EyeJitter, spec.GridStep, -k, k)
		if err != nil {
			fatal(err)
		}
		net, err := model.AsNetwork(pmf)
		if err != nil {
			fatal(err)
		}
		fmt.Print(net.DOT())
		if err := obsrv.Close(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	panel := &experiments.Panel{Model: model}
	opt := core.SolveOptions{}
	opt.Multigrid.Workers = *workers
	var meter *cost.Meter
	if *costRep {
		meter = cost.NewMeter()
		obsrv.Run.Meter = meter
	}
	opt.Multigrid.Ctx = obsrv.Context()
	solveDone := obsrv.Registry.Histogram("solve_ms").Time()
	endSolve := obsrv.Run.Span("cdranalyze.solve")
	var a *core.Analysis
	if kron {
		a, err = model.SolveKron(opt)
	} else {
		a, err = model.Solve(opt)
	}
	endSolve()
	solveDone()
	if err != nil {
		fatal(err)
	}
	if *costRep {
		rep := meter.Finish()
		rep.Endpoint = "cli"
		rep.States = model.NumStates()
		if model.P != nil {
			rep.NNZ = model.P.NNZ()
			rep.MatrixBytes = model.P.MemoryBytes()
		} else {
			rep.NNZ = int(model.Desc.NNZ())
			rep.MatrixBytes = model.Desc.MemoryBytes()
		}
		// Stderr keeps -csv and -bathtub stdout pipelines clean.
		enc := json.NewEncoder(os.Stderr)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	}
	obsrv.Registry.Counter("multigrid.cycles").Add(int64(a.Multigrid.Cycles))
	panel.Analysis = a
	if err := panel.Annotate(os.Stdout); err != nil {
		fatal(err)
	}
	if *slip {
		stats, err := model.SlipStats(a.Pi)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Slip flux: %.3e per bit  MeanTimeBetweenSlips: %.3e bits  pi(slip): %.3e\n",
			stats.Flux, stats.MeanTimeBetween, stats.TargetMass)
	}
	if *eyeAt > 0 {
		open, err := model.EyeOpening(a.Pi, *eyeAt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Eye opening at BER <= %.1e: %.4f UI\n", *eyeAt, open)
	}
	if *bathtub > 0 {
		offsets, ber, err := model.Bathtub(a.Pi, *bathtub)
		if err != nil {
			fatal(err)
		}
		fmt.Println("offset_ui,ber")
		for i := range offsets {
			fmt.Printf("%.6f,%.6e\n", offsets[i], ber[i])
		}
	}
	if *csv {
		if err := panel.WriteCSV(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if err := obsrv.Close(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cdranalyze:", err)
	os.Exit(1)
}
