// Command cdrreport regenerates the paper's entire evaluation in one run:
// the Figure 4 panels (low/high eye jitter), the Figure 5 counter-length
// sweep, the solver-comparison table of the Numerical Methods section,
// the cycle-slip statistics, and the Monte Carlo feasibility argument —
// printed as one consolidated report matching EXPERIMENTS.md.
//
//	go run ./cmd/cdrreport            # full report (~1 minute)
//	go run ./cmd/cdrreport -quick     # skip the solver-scaling table
//
// With -top it instead tails a running cdrserved's /debug/solves table
// and prints a live per-solve cost table sorted by CPU time:
//
//	go run ./cmd/cdrreport -top http://127.0.0.1:8340
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"cdrstoch/internal/bitsim"
	"cdrstoch/internal/cliutil"
	"cdrstoch/internal/core"
	"cdrstoch/internal/experiments"
	"cdrstoch/internal/obs/cost"
)

func main() {
	quick := flag.Bool("quick", false, "skip the solver-scaling table (the slowest section)")
	top := flag.String("top", "", "tail this cdrserved base URL's /debug/solves as a live cost table instead of running the report")
	topInterval := flag.Duration("top-interval", 2*time.Second, "refresh interval in -top mode")
	topN := flag.Int("top-n", 0, "number of refreshes in -top mode (0 = until interrupted)")
	topLimit := flag.Int("top-limit", 20, "reports per refresh in -top mode")
	of := cliutil.BindObs(flag.CommandLine)
	workers := cliutil.BindWorkers(flag.CommandLine)
	flag.Parse()
	if *top != "" {
		check(runTop(os.Stdout, *top, *topInterval, *topN, *topLimit))
		return
	}
	obsrv, err := of.Setup()
	if err != nil {
		check(err)
	}
	reg := obsrv.Registry
	solveOpt := core.SolveOptions{}
	solveOpt.Multigrid.Workers = *workers
	solveOpt.Multigrid.Ctx = obsrv.Context()
	start := time.Now()

	fmt.Println("Stochastic Modeling and Performance Evaluation for Digital CDR Circuits")
	fmt.Println("Demir & Feldmann, DATE 2000 — reproduction report")
	fmt.Println()

	section("Figure 3 — transition probability matrix structure")
	buildDone := reg.Timer("section.fig3").Time()
	m, err := core.Build(experiments.BaseSpec())
	buildDone()
	check(err)
	n := m.NumStates()
	reg.Gauge("model.states").Set(float64(n))
	reg.Gauge("model.nnz").Set(float64(m.P.NNZ()))
	fmt.Printf("TPM: %d states, %d nonzeros (%.3f%% dense), bandwidth %d, formed in %v\n",
		n, m.P.NNZ(), 100*float64(m.P.NNZ())/float64(n)/float64(n), m.P.Bandwidth(), m.FormTime)
	fmt.Println("(render with: go run ./cmd/tpmspy -preset base)")

	section("Figure 4 — stationary phase-error analysis, low vs 4x eye jitter")
	fig4Done := reg.Timer("section.fig4").Time()
	for _, high := range []bool{false, true} {
		endSpan := obsrv.Run.Span(fmt.Sprintf("cdrreport.fig4.high=%v", high))
		p, err := experiments.RunPanel(experiments.Fig4Spec(high), solveOpt)
		endSpan()
		check(err)
		reg.Counter("multigrid.cycles").Add(int64(p.Analysis.Multigrid.Cycles))
		check(p.Annotate(os.Stdout))
		fmt.Printf("  slips: flux %.3e /bit, mean time between %.3e bits\n\n",
			p.Slip.Flux, p.Slip.MeanTimeBetween)
	}
	fig4Done()

	section("Figure 5 — BER vs loop-filter counter length (noise fixed)")
	fig5Done := reg.Timer("section.fig5").Time()
	points, best, err := experiments.OptimalCounter(experiments.Fig5Spec, []int{1, 2, 4, 8, 16, 32}, solveOpt)
	fig5Done()
	check(err)
	fmt.Printf("%-8s %12s %12s\n", "counter", "BER", "vs best")
	for _, p := range points {
		fmt.Printf("%-8d %12.3e %11.1fx\n", p.CounterLen, p.BER, p.BER/points[best].BER)
	}
	fmt.Printf("optimal counter length: %d\n", points[best].CounterLen)

	if !*quick {
		section("Numerical Methods — solver comparison under grid refinement")
		solverDone := reg.Timer("section.solvers").Time()
		for _, refine := range []int{2, 4} {
			spec, err := experiments.ScaledSpec(refine)
			check(err)
			mm, err := core.Build(spec)
			check(err)
			fmt.Printf("grid 1/%d UI (%d states):\n", int(1/spec.GridStep+0.5), mm.NumStates())
			rows, err := experiments.CompareSolvers(mm, 1e-10, 200000, obsrv.Tracer)
			check(err)
			for _, row := range rows {
				reg.Counter("solver.iterations").Add(int64(row.Iterations))
			}
			check(experiments.WriteSolverTable(os.Stdout, rows))
			fmt.Println()
		}
		solverDone()
	}

	section("Introduction — simulation infeasibility at SONET-class BER")
	mcDone := reg.Timer("section.montecarlo").Time()
	p, err := experiments.RunPanel(experiments.Fig4Spec(false), solveOpt)
	check(err)
	target := p.Analysis.BER
	if target < 1e-14 {
		target = 1e-14
	}
	bits, err := bitsim.BitsForTarget(target, 0.1)
	check(err)
	fmt.Printf("low-noise BER %.2e solved by analysis in %v;\n", p.Analysis.BER, p.Analysis.SolveTime)
	fmt.Printf("resolving it by simulation to ±10%% needs ≈ %.1e bits.\n", bits)
	mc, err := bitsim.RunParallel(bitsim.Config{
		Spec: experiments.Fig4Spec(true), Bits: 1000000, Seed: 1,
		Ctx: obsrv.Context(), Metrics: reg,
	}, 0)
	check(err)
	hp, err := experiments.RunPanel(experiments.Fig4Spec(true), solveOpt)
	check(err)
	agree := "inside"
	if hp.Analysis.BER < mc.CILow || hp.Analysis.BER > mc.CIHigh {
		agree = "outside"
	}
	fmt.Printf("high-noise cross-check: analysis %.3e %s the Monte Carlo 95%% interval [%.3e, %.3e]\n",
		hp.Analysis.BER, agree, mc.CILow, mc.CIHigh)
	mcDone()

	section("Metrics — section timings and work counters")
	check(reg.Snapshot().WriteText(os.Stdout))

	fmt.Printf("\nReport completed in %v.\n", time.Since(start).Round(time.Millisecond))
	check(obsrv.Close(os.Stdout))
}

// solvesPage mirrors the /debug/solves JSON body.
type solvesPage struct {
	Count   int                `json:"count"`
	Dropped uint64             `json:"dropped"`
	Reports []cost.SolveReport `json:"reports"`
}

// topOnce fetches one page of the finished-solve table and renders it.
func topOnce(w io.Writer, client *http.Client, base string, limit int) error {
	url := strings.TrimRight(base, "/") + "/debug/solves?limit=" + strconv.Itoa(limit)
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	var page solvesPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	if _, err := fmt.Fprintf(w, "%s  %d solves retained, %d evicted\n",
		time.Now().Format(time.TimeOnly), page.Count, page.Dropped); err != nil {
		return err
	}
	return cost.WriteTable(w, page.Reports)
}

// runTop polls the daemon's /debug/solves every interval and prints the
// live cost table, iters times (0 = until interrupted).
func runTop(w io.Writer, base string, interval time.Duration, iters, limit int) error {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	if limit <= 0 {
		limit = 20
	}
	client := &http.Client{Timeout: interval + 5*time.Second}
	for i := 0; ; i++ {
		if err := topOnce(w, client, base, limit); err != nil {
			return err
		}
		if iters > 0 && i+1 >= iters {
			return nil
		}
		fmt.Fprintln(w)
		time.Sleep(interval)
	}
}

func section(title string) {
	fmt.Println("────────────────────────────────────────────────────────────────────")
	fmt.Println(title)
	fmt.Println("────────────────────────────────────────────────────────────────────")
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdrreport:", err)
		os.Exit(1)
	}
}
