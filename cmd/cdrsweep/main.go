// Command cdrsweep runs parameter sweeps over the CDR model:
//
//	-sweep counter   BER vs loop-filter counter length (Figure 5)
//	-sweep noise     BER vs eye-jitter standard deviation (Figure 4 axis)
//	-sweep solver    solver comparison table vs grid refinement (§Numerical Methods)
//
// Each sweep prints one aligned table to stdout. With -strict, any
// unconverged solve turns the warning into a nonzero exit, so scripted
// sweeps cannot silently tabulate unconverged iterates. With -batch, the
// counter and noise sweeps run as one warm-started continuation chain
// (shared symbolic setup, neighbor-seeded solves) instead of independent
// point-at-a-time solves; the per-point cycle and SpMV columns — sourced
// from each solve's cost meter — make the savings visible in the table.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"cdrstoch/internal/cliutil"
	"cdrstoch/internal/core"
	"cdrstoch/internal/dist"
	"cdrstoch/internal/experiments"
	"cdrstoch/internal/obs"
	"cdrstoch/internal/obs/cost"
	sweepeng "cdrstoch/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// exitUnconverged is the -strict exit status, distinct from usage (2) and
// operational (1) failures.
const exitUnconverged = 3

// strictExitCode folds the unconverged-solve count into the process exit
// status under the -strict contract.
func strictExitCode(strict bool, unconverged int) int {
	if strict && unconverged > 0 {
		return exitUnconverged
	}
	return 0
}

func run(args []string, stdout, stderr io.Writer) int {
	app := cliutil.NewApp("cdrsweep")
	fs := app.Flags
	sf := app.Spec
	sweep := fs.String("sweep", "counter", "sweep kind: counter, noise, solver, grid")
	values := fs.String("values", "", "comma-separated sweep values (defaults per sweep kind)")
	tol := fs.Float64("tol", 1e-10, "solver tolerance (solver sweep)")
	strict := fs.Bool("strict", false, "exit nonzero (status 3) when any solve fails to converge")
	batch := fs.Bool("batch", false, "run counter/noise sweeps as one warm-started continuation chain")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "cdrsweep:", err)
		return 1
	}
	obsrv, err := app.Obs.Setup()
	if err != nil {
		return fail(err)
	}
	solveOpt := core.SolveOptions{}
	solveOpt.Multigrid.Workers = *app.Workers

	unconverged := 0
	runner := newPointRunner(*batch, solveOpt, obsrv.Run)
	switch *sweep {
	case "counter":
		lengths := []int{1, 2, 4, 8, 16, 32}
		if *values != "" {
			var err error
			lengths, err = cliutil.ParseInts(*values)
			if err != nil {
				return fail(err)
			}
		}
		fmt.Fprintf(stdout, "%-8s %12s %14s %10s %8s %10s %6s\n",
			"counter", "BER", "MTBS(bits)", "states", "cycles", "spmvs", "warm")
		for _, l := range lengths {
			spec, err := specWithCounter(sf, l)
			if err != nil {
				return fail(err)
			}
			endSpan := obsrv.Run.Span(fmt.Sprintf("sweep.counter.%d", l))
			pointDone := obsrv.Registry.Timer("sweep.point").Time()
			p, rep, err := runner.solve(spec)
			pointDone()
			endSpan()
			if errors.Is(err, core.ErrUnconverged) {
				// The batch session refuses to tabulate unconverged points;
				// degrade like the point-at-a-time path: warn and move on.
				warnUnconverged(stderr, false, fmt.Sprintf("counter %d", l), 0)
				unconverged++
				continue
			}
			if err != nil {
				return fail(fmt.Errorf("counter %d: %w", l, err))
			}
			obsrv.Registry.Counter("multigrid.cycles").Add(rep.Cycles)
			if warnUnconverged(stderr, p.Analysis.Multigrid.Converged, fmt.Sprintf("counter %d", l), p.Analysis.Multigrid.Residual) {
				unconverged++
			}
			fmt.Fprintf(stdout, "%-8d %12.3e %14.3e %10d %8d %10d %6s\n",
				l, p.Analysis.BER, p.Slip.MeanTimeBetween,
				p.Model.NumStates(), rep.Cycles, rep.Pool.SpMVs, warmMark(rep.WarmStarted))
		}
		runner.summarize(stdout)
	case "noise":
		sigmas := []float64{0.02, 0.04, 0.06, 0.08, 0.10}
		if *values != "" {
			var err error
			sigmas, err = cliutil.ParseFloats(*values)
			if err != nil {
				return fail(err)
			}
		}
		fmt.Fprintf(stdout, "%-8s %12s %14s %8s %10s %6s\n",
			"stdnw", "BER", "MTBS(bits)", "cycles", "spmvs", "warm")
		for _, sig := range sigmas {
			spec, err := sf.Spec()
			if err != nil {
				return fail(err)
			}
			spec.EyeJitter = dist.NewGaussian(0, sig)
			endSpan := obsrv.Run.Span(fmt.Sprintf("sweep.noise.%g", sig))
			pointDone := obsrv.Registry.Timer("sweep.point").Time()
			p, rep, err := runner.solve(spec)
			pointDone()
			endSpan()
			if errors.Is(err, core.ErrUnconverged) {
				warnUnconverged(stderr, false, fmt.Sprintf("stdnw %g", sig), 0)
				unconverged++
				continue
			}
			if err != nil {
				return fail(fmt.Errorf("stdnw %g: %w", sig, err))
			}
			obsrv.Registry.Counter("multigrid.cycles").Add(rep.Cycles)
			if warnUnconverged(stderr, p.Analysis.Multigrid.Converged, fmt.Sprintf("stdnw %g", sig), p.Analysis.Multigrid.Residual) {
				unconverged++
			}
			fmt.Fprintf(stdout, "%-8.3f %12.3e %14.3e %8d %10d %6s\n",
				sig, p.Analysis.BER, p.Slip.MeanTimeBetween, rep.Cycles, rep.Pool.SpMVs, warmMark(rep.WarmStarted))
		}
		runner.summarize(stdout)
	case "solver":
		refines := []int{1, 2, 4}
		if *values != "" {
			var err error
			refines, err = cliutil.ParseInts(*values)
			if err != nil {
				return fail(err)
			}
		}
		for _, r := range refines {
			spec, err := experiments.ScaledSpec(r)
			if err != nil {
				return fail(err)
			}
			m, err := core.Build(spec)
			if err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "== grid 1/%d UI: %d states, %d nnz ==\n",
				int(1/spec.GridStep+0.5), m.NumStates(), m.P.NNZ())
			sweepDone := obsrv.Registry.Timer("sweep.solver").Time()
			rows, err := experiments.CompareSolvers(m, *tol, 200000, obsrv.Tracer)
			sweepDone()
			if err != nil {
				return fail(err)
			}
			if err := experiments.WriteSolverTable(stdout, rows); err != nil {
				return fail(err)
			}
			for _, row := range rows {
				obsrv.Registry.Counter("solver.iterations").Add(int64(row.Iterations))
				if !row.Converged {
					unconverged++
					fmt.Fprintf(stderr,
						"cdrsweep: warning: %s did not converge at grid 1/%d (final residual %.3e, decay %.4f/iter); tabulated value is the unconverged iterate\n",
						row.Name, int(1/spec.GridStep+0.5), row.Residual, row.Slope)
				}
			}
		}
	case "grid":
		denoms := []int{16, 32, 64, 128}
		if *values != "" {
			var err error
			denoms, err = cliutil.ParseInts(*values)
			if err != nil {
				return fail(err)
			}
		}
		points, err := experiments.GridStudy(denoms, 0.0005, 0.012, 0.08, 8)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%-8s %10s %12s %8s %14s\n", "grid", "states", "BER", "cycles", "|dBER|")
		prev := 0.0
		for i, p := range points {
			diff := "-"
			if i > 0 {
				diff = fmt.Sprintf("%.3e", abs(p.BER-prev))
			}
			fmt.Fprintf(stdout, "1/%-6d %10d %12.3e %8d %14s\n", p.GridDenom, p.States, p.BER, p.Cycles, diff)
			prev = p.BER
		}
	default:
		return fail(fmt.Errorf("unknown sweep %q", *sweep))
	}
	if err := obsrv.Close(stdout); err != nil {
		return fail(err)
	}
	if code := strictExitCode(*strict, unconverged); code != 0 {
		fmt.Fprintf(stderr, "cdrsweep: %d solve(s) did not converge (-strict)\n", unconverged)
		return code
	}
	return 0
}

// pointRunner solves sweep points either point-at-a-time (fresh build and
// cold W-cycles per point, the historical path) or through one
// warm-started sweep.Session (-batch). Every point runs under its own
// run handle: the command's, with a cost.Meter of the point's own. Its
// solver events reach the command's -trace and -progress sinks, and the
// table's cycles/spmvs/warm columns come from the same accounting the
// server reports in X-Solve-Cost-* headers.
type pointRunner struct {
	batch bool
	sess  *sweepeng.Session
	opt   core.SolveOptions
	run   *obs.Run // the command's run handle
}

func newPointRunner(batch bool, opt core.SolveOptions, run *obs.Run) *pointRunner {
	r := &pointRunner{batch: batch, opt: opt, run: run}
	if batch {
		r.sess = sweepeng.New(sweepeng.Options{Solve: opt})
	}
	return r
}

// solve runs one point and returns the panel together with the point's
// cost report (cycle count, kernel counts, warm-start flag).
func (r *pointRunner) solve(spec core.Spec) (*experiments.Panel, cost.SolveReport, error) {
	meter := cost.NewMeter()
	run := *r.run
	run.Meter = meter
	ctx := obs.WithRun(context.Background(), &run)
	if r.batch {
		pt, err := r.sess.Solve(ctx, spec)
		if err != nil {
			return nil, meter.Finish(), err
		}
		slip, err := pt.Model.SlipStats(pt.Analysis.Pi)
		if err != nil {
			return nil, meter.Finish(), err
		}
		return &experiments.Panel{Model: pt.Model, Analysis: pt.Analysis, Slip: slip}, meter.Finish(), nil
	}
	opt := r.opt
	opt.Multigrid.Ctx = ctx
	p, err := experiments.RunPanel(spec, opt)
	return p, meter.Finish(), err
}

// summarize prints the session's continuation counters after a batch
// sweep; point-at-a-time runs have no chain to summarize.
func (r *pointRunner) summarize(w io.Writer) {
	if !r.batch {
		return
	}
	st := r.sess.Stats()
	fmt.Fprintf(w, "batch: %d points, %d setup reuses, %d warm starts, %d fallbacks, %d total cycles\n",
		st.Points, st.ReusedSetup, st.WarmStarted, st.Fallbacks, st.Cycles)
}

// warmMark renders the warm-start table cell.
func warmMark(warm bool) string {
	if warm {
		return "yes"
	}
	return "-"
}

// warnUnconverged reports an unconverged iterative solve on stderr rather
// than letting the unconverged value enter the table silently, and
// reports whether it warned (for the -strict accounting).
func warnUnconverged(w io.Writer, converged bool, point string, residual float64) bool {
	if converged {
		return false
	}
	fmt.Fprintf(w,
		"cdrsweep: warning: solver did not converge at %s (final residual %.3e); tabulated value is the unconverged iterate\n",
		point, residual)
	return true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// specWithCounter builds the flag spec with an overridden counter length,
// honoring the fig5 preset.
func specWithCounter(sf *cliutil.SpecFlags, l int) (core.Spec, error) {
	if *sf.Preset == "fig5" || *sf.Preset == "" {
		return experiments.Fig5Spec(l), nil
	}
	spec, err := sf.Spec()
	if err != nil {
		return core.Spec{}, err
	}
	spec.CounterLen = l
	return spec, spec.Validate()
}
