// Package experiments pins down the calibrated configurations that
// regenerate the paper's figures, and shared helpers used by the command-
// line tools, the runnable examples and the benchmark harness. Each
// experiment is indexed in DESIGN.md; EXPERIMENTS.md records the measured
// outcomes against the paper's.
//
// The paper's own numeric annotations are largely lost to OCR damage; the
// configurations here were calibrated (see DESIGN.md §2) so that the
// *shape* of each result matches the paper's prose exactly: Figure 4's
// negligible-vs-visible BER as the eye jitter grows, and Figure 5's
// interior BER optimum at counter length 8 within {2, 8, 32}.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"cdrstoch/internal/core"
	"cdrstoch/internal/dist"
	"cdrstoch/internal/markov"
	"cdrstoch/internal/multigrid"
	"cdrstoch/internal/obs"
	"cdrstoch/internal/passage"
)

// Fig5Lengths are the counter lengths compared in Figure 5. The paper's
// panel labels are OCR-damaged ("?", "8", "?"); the prose demands a short
// length whose loop follows n_w, the optimum at 8, and a long length too
// slow for the n_r drift.
var Fig5Lengths = []int{2, 8, 32}

// BaseSpec is the calibrated model shared by the figure experiments:
// 1/64-UI grid on ±0.75 UI, 1/16-UI correction step, SONET-style data
// (density 1/2, max run 4), and a bounded skewed n_r with mean 2e−4 UI/bit
// (frequency offset) and MAXnr = 1/32 UI.
func BaseSpec() core.Spec {
	s := core.DefaultSpec()
	drift, err := dist.DriftPMF(dist.DriftSpec{
		Step:  s.GridStep,
		Max:   2 * s.GridStep,
		Mean:  0.0002,
		Shape: 0.05,
	})
	if err != nil {
		panic("experiments: drift construction failed: " + err.Error())
	}
	s.Drift = drift
	return s
}

// Fig4Spec returns the Figure 4 configuration: counter length 8 with low
// (σ = 0.02 UI) or high (σ = 0.08 UI, 4×) Gaussian eye jitter. The paper:
// "the noise levels are so small that the CDR system has negligible BER;
// when the standard deviation of the noise source n_w … is increased …
// the BER increases".
func Fig4Spec(highNoise bool) core.Spec {
	s := BaseSpec()
	s.CounterLen = 8
	sigma := 0.02
	if highNoise {
		sigma = 0.08
	}
	s.EyeJitter = dist.NewGaussian(0, sigma)
	return s
}

// Fig5Spec returns the Figure 5 configuration for a given counter length:
// σ = 0.09 UI eye jitter against the BaseSpec drift, which places the BER
// optimum at counter length 8.
func Fig5Spec(counterLen int) core.Spec {
	s := BaseSpec()
	s.CounterLen = counterLen
	s.EyeJitter = dist.NewGaussian(0, 0.09)
	return s
}

// ScaledSpec refines the BaseSpec grid by the given power-of-two factor
// (1 → 1/64 UI, 2 → 1/128 UI, …), growing the state space proportionally.
// The n_r jumps are re-quantized at the new grid step — the paper's point
// that the grid must be "fine enough to accurately capture the small jumps
// in phase error due to n_r" — so the phase diffusion slows as the grid
// refines and classical iterations degrade while multigrid cycles stay
// level. Used by the solver-scaling experiment (the paper's "million state
// problems in less than an hour" claim, scaled to CI budgets).
func ScaledSpec(refine int) (core.Spec, error) {
	if refine < 1 {
		return core.Spec{}, fmt.Errorf("experiments: refine factor %d < 1", refine)
	}
	s := BaseSpec()
	s.GridStep /= float64(refine)
	drift, err := dist.DriftPMF(dist.DriftSpec{
		Step:  s.GridStep,
		Max:   2 * s.GridStep, // jumps live at the grid scale
		Mean:  0.0002,
		Shape: 0.05,
	})
	if err != nil {
		return core.Spec{}, err
	}
	s.Drift = drift
	s.EyeJitter = dist.NewGaussian(0, 0.08)
	return s, nil
}

// Panel is one solved figure panel with everything the paper annotates.
type Panel struct {
	Model    *core.Model
	Analysis *core.Analysis
	Slip     passage.FluxResult
}

// RunPanel builds and solves a figure panel. An optional SolveOptions
// (first value wins) forwards solver knobs — notably the parallel worker
// count — to the stationary solve.
func RunPanel(spec core.Spec, opts ...core.SolveOptions) (*Panel, error) {
	m, err := core.Build(spec)
	if err != nil {
		return nil, err
	}
	var opt core.SolveOptions
	if len(opts) > 0 {
		opt = opts[0]
	}
	a, err := m.Solve(opt)
	if err != nil {
		return nil, err
	}
	slip, err := m.SlipStats(a.Pi)
	if err != nil {
		return nil, err
	}
	return &Panel{Model: m, Analysis: a, Slip: slip}, nil
}

// WriteCSV emits the two density series of a figure panel (stationary
// phase-error PDF and the PD input Φ+n_w PDF) as CSV with a header row.
func (p *Panel) WriteCSV(w io.Writer) error {
	pdf := p.Model.PhasePDF(p.Analysis.Pi)
	lo, hi := -1.0, 1.0
	n := 256
	jpdf, err := p.Model.PhasePlusJitterPDF(p.Analysis.Pi, lo, hi, n)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "series,phase_ui,density"); err != nil {
		return err
	}
	for mi, v := range pdf {
		if _, err := fmt.Fprintf(w, "phase,%.6f,%.6e\n", p.Model.PhaseValue(mi), v); err != nil {
			return err
		}
	}
	width := (hi - lo) / float64(n)
	for j, v := range jpdf {
		x := lo + (float64(j)+0.5)*width
		if _, err := fmt.Fprintf(w, "phase_plus_nw,%.6f,%.6e\n", x, v); err != nil {
			return err
		}
	}
	return nil
}

// Annotate writes the paper-style header and footer annotation lines.
func (p *Panel) Annotate(w io.Writer) error {
	if _, err := fmt.Fprintln(w, p.Model.FigureHeader(p.Analysis.BER)); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, p.Model.FigureFooter(p.Analysis))
	return err
}

// SolverRow is one row of the solver-comparison table (experiment T1).
type SolverRow struct {
	Name string
	// Iterations counts solver-specific units: sweeps for the classical
	// methods, cycles for multigrid.
	Iterations int
	// SweepEquivalents approximates total work in units of one fine-level
	// matrix sweep.
	SweepEquivalents int
	Residual         float64
	Converged        bool
	Elapsed          time.Duration
	// Slope is the least-squares residual-decay rate fitted over the
	// solver's traced per-iteration residuals, in log10 decades per
	// iteration (negative when converging; NaN when under two points).
	Slope float64
	// SlopePoints is the number of trace points the fit used.
	SlopePoints int
}

// CompareSolvers runs the classical iterations and the multilevel solver
// on one model at the given tolerance and returns the comparison table —
// the quantitative form of the paper's Numerical Methods section. Each
// solver runs under its own run, whose sink is a residual-trajectory
// collector (forwarded to trace when non-nil) from which the per-solver
// decay slope is fitted.
func CompareSolvers(m *core.Model, tol float64, maxSweeps int, trace obs.Tracer) ([]SolverRow, error) {
	ch, err := m.Chain()
	if err != nil {
		return nil, err
	}
	var rows []SolverRow
	add := func(name string, iters, sweepEq int, resid float64, conv bool, dt time.Duration, col *obs.Collector, event string) {
		slope, points := obs.DecaySlope(col.Events(), event)
		rows = append(rows, SolverRow{
			Name: name, Iterations: iters, SweepEquivalents: sweepEq,
			Residual: resid, Converged: conv, Elapsed: dt,
			Slope: slope, SlopePoints: points,
		})
	}

	// collect starts a fresh collector and returns a context whose run
	// sinks into it.
	var col *obs.Collector
	collect := func() context.Context {
		col = obs.NewCollector(trace)
		return obs.WithRun(context.Background(), &obs.Run{Sink: col})
	}
	start := time.Now()
	pw, err := ch.StationaryPower(markov.Options{Tol: tol, MaxIter: maxSweeps, Damping: 0.95, Ctx: collect()})
	if err != nil {
		return nil, err
	}
	add("power(0.95)", pw.Iterations, pw.Iterations, pw.Residual, pw.Converged, time.Since(start), col, "power")

	start = time.Now()
	ja, err := ch.StationaryJacobi(markov.Options{Tol: tol, MaxIter: maxSweeps, Damping: 0.8, Ctx: collect()})
	if err != nil {
		return nil, err
	}
	add("jacobi(0.8)", ja.Iterations, ja.Iterations, ja.Residual, ja.Converged, time.Since(start), col, "jacobi")

	start = time.Now()
	gs, err := ch.StationaryGaussSeidel(markov.Options{Tol: tol, MaxIter: maxSweeps, Ctx: collect()})
	if err != nil {
		return nil, err
	}
	add("gauss-seidel", gs.Iterations, gs.Iterations, gs.Residual, gs.Converged, time.Since(start), col, "gauss-seidel")

	start = time.Now()
	gm, err := ch.StationaryGMRES(markov.GMRESOptions{Tol: tol, Restart: 30, MaxIter: maxSweeps, Ctx: collect()})
	if err != nil {
		return nil, err
	}
	add("gmres(30)", gm.Iterations, gm.Iterations, gm.Residual, gm.Converged, time.Since(start), col, "gmres")

	for _, mg := range []struct {
		name string
		cfg  multigrid.Config
	}{
		{"mg-vcycle", multigrid.Config{Tol: tol, PreSmooth: 2, PostSmooth: 2, Cycle: multigrid.VCycle}},
		{"mg-wcycle", multigrid.Config{Tol: tol, PreSmooth: 2, PostSmooth: 2, Cycle: multigrid.WCycle}},
	} {
		parts, err := m.Hierarchy(4)
		if err != nil {
			return nil, err
		}
		mg.cfg.Ctx = collect()
		solver, err := multigrid.New(m.P, parts, mg.cfg)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		res, err := solver.Solve(nil)
		if err != nil {
			return nil, err
		}
		levels := len(res.LevelSizes)
		perCycle := 4 * levels // V-cycle approximation
		if mg.cfg.Cycle == multigrid.WCycle {
			perCycle = 8 * levels
		}
		add(mg.name, res.Cycles, res.Cycles*perCycle, res.Residual, res.Converged, time.Since(start), col, "multigrid")
	}
	return rows, nil
}

// WriteSolverTable renders the comparison rows as an aligned text table.
// The decay column is the traced residual-decay slope in log10 decades
// per iteration (more negative = faster convergence).
func WriteSolverTable(w io.Writer, rows []SolverRow) error {
	if _, err := fmt.Fprintf(w, "%-14s %10s %12s %12s %10s %10s %12s\n",
		"solver", "iters", "sweep-equiv", "residual", "converged", "seconds", "decay/iter"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-14s %10d %12d %12.3e %10v %10.3f %12.4f\n",
			r.Name, r.Iterations, r.SweepEquivalents, r.Residual, r.Converged,
			r.Elapsed.Seconds(), r.Slope); err != nil {
			return err
		}
	}
	return nil
}
