package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"cdrstoch/internal/core"
)

func TestBaseSpecValid(t *testing.T) {
	if err := BaseSpec().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFig4Specs(t *testing.T) {
	low := Fig4Spec(false)
	high := Fig4Spec(true)
	if low.CounterLen != 8 || high.CounterLen != 8 {
		t.Error("Figure 4 fixes the counter length at 8")
	}
	if high.EyeJitter.Std() != 4*low.EyeJitter.Std() {
		t.Errorf("high/low sigma ratio = %g, want 4",
			high.EyeJitter.Std()/low.EyeJitter.Std())
	}
}

func TestFig5SpecLengths(t *testing.T) {
	if len(Fig5Lengths) != 3 || Fig5Lengths[1] != 8 {
		t.Fatalf("Fig5Lengths = %v", Fig5Lengths)
	}
	for _, l := range Fig5Lengths {
		if err := Fig5Spec(l).Validate(); err != nil {
			t.Errorf("Fig5Spec(%d): %v", l, err)
		}
	}
}

// TestFig4Shape: the paper's Figure 4 contrast — negligible BER at low
// noise, sharply higher when the eye jitter quadruples.
func TestFig4Shape(t *testing.T) {
	low, err := RunPanel(Fig4Spec(false))
	if err != nil {
		t.Fatal(err)
	}
	high, err := RunPanel(Fig4Spec(true))
	if err != nil {
		t.Fatal(err)
	}
	if low.Analysis.BER > 1e-9 {
		t.Errorf("low-noise BER %.3e not negligible", low.Analysis.BER)
	}
	if high.Analysis.BER < 1e3*low.Analysis.BER {
		t.Errorf("BER contrast too small: low %.3e, high %.3e",
			low.Analysis.BER, high.Analysis.BER)
	}
}

// TestFig5Shape: the paper's Figure 5 conclusion — an interior optimum at
// counter length 8, worse at both shorter and longer lengths.
func TestFig5Shape(t *testing.T) {
	ber := map[int]float64{}
	for _, l := range Fig5Lengths {
		p, err := RunPanel(Fig5Spec(l))
		if err != nil {
			t.Fatalf("L=%d: %v", l, err)
		}
		ber[l] = p.Analysis.BER
	}
	if !(ber[8] < ber[2] && ber[8] < ber[32]) {
		t.Fatalf("no interior optimum at 8: %v", ber)
	}
	if ber[2]/ber[8] < 1.5 {
		t.Errorf("short-counter penalty only %.2fx", ber[2]/ber[8])
	}
	if ber[32]/ber[8] < 2 {
		t.Errorf("long-counter penalty only %.2fx", ber[32]/ber[8])
	}
}

// TestSlipHazardMatchesFlux checks the quasi-stationary slip hazard at
// Figure 5 counter 2, where slips come about 2e−26 per bit: 1 − λ is
// rounding noise there, but the mass ν·P sends into the slip set must be
// positive and within 5 % of the stationary slip flux.
func TestSlipHazardMatchesFlux(t *testing.T) {
	p, err := RunPanel(Fig5Spec(2))
	if err != nil {
		t.Fatal(err)
	}
	qs, err := p.Model.SlipQuasiStationary()
	if err != nil {
		t.Fatal(err)
	}
	if !qs.Converged {
		t.Fatalf("quasi-stationary solve did not converge in %d sweeps", qs.Iterations)
	}
	flux := p.Slip.Flux
	t.Logf("hazard %.4g per bit, flux %.4g (1 − λ = %.2g)", qs.HazardPerStep, flux, 1-qs.Lambda)
	if qs.HazardPerStep <= 0 || math.Abs(qs.HazardPerStep/flux-1) > 0.05 {
		t.Errorf("hazard %g per bit, want positive and within 5%% of the flux %g", qs.HazardPerStep, flux)
	}
}

func TestScaledSpec(t *testing.T) {
	s, err := ScaledSpec(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	base := BaseSpec()
	if s.GridStep != base.GridStep/2 {
		t.Error("grid not refined")
	}
	m, err := core.Build(s)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := core.Build(base)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() <= mb.NumStates() {
		t.Error("refinement did not grow the state space")
	}
	if _, err := ScaledSpec(0); err == nil {
		t.Error("refine=0 accepted")
	}
}

func TestPanelOutputs(t *testing.T) {
	p, err := RunPanel(Fig4Spec(true))
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := p.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	out := csv.String()
	if !strings.HasPrefix(out, "series,phase_ui,density\n") {
		t.Error("missing CSV header")
	}
	if !strings.Contains(out, "phase,") || !strings.Contains(out, "phase_plus_nw,") {
		t.Error("missing series")
	}
	var ann bytes.Buffer
	if err := p.Annotate(&ann); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"COUNTER:", "BER:", "Size:", "Solvetime:"} {
		if !strings.Contains(ann.String(), want) {
			t.Errorf("annotation missing %q", want)
		}
	}
	if p.Slip.Flux <= 0 {
		t.Error("slip flux must be positive on the high-noise panel")
	}
}

// TestCompareSolvers verifies the paper's Numerical Methods claims in
// their honest, measurable form: every solver reaches the same fixed
// point; the multilevel method needs orders of magnitude fewer iterations
// than the basic iterations it accelerates; and as the grid refines, the
// classical sweep counts grow with the slowing phase diffusion while the
// multigrid cycle count stays nearly level.
func TestCompareSolvers(t *testing.T) {
	run := func(refine int) map[string]SolverRow {
		s, err := ScaledSpec(refine)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.Build(s)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := CompareSolvers(m, 1e-10, 50000, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 6 {
			t.Fatalf("rows = %d", len(rows))
		}
		byName := map[string]SolverRow{}
		for _, r := range rows {
			if !r.Converged {
				t.Fatalf("refine %d: %s did not converge: %+v", refine, r.Name, r)
			}
			if r.SlopePoints < 2 || !(r.Slope < 0) {
				t.Errorf("refine %d: %s decay slope %g over %d points, want negative fit",
					refine, r.Name, r.Slope, r.SlopePoints)
			}
			byName[r.Name] = r
		}
		var buf bytes.Buffer
		if err := WriteSolverTable(&buf, rows); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "mg-wcycle") {
			t.Error("table missing multigrid row")
		}
		return byName
	}
	r1 := run(2)
	r2 := run(4)

	// Multigrid accelerates the basic iterations: ≥5× fewer iterations
	// than power at both scales.
	for _, r := range []map[string]SolverRow{r1, r2} {
		if r["power(0.95)"].Iterations < 5*r["mg-wcycle"].Iterations {
			t.Errorf("power %d iters vs mg %d cycles: acceleration too small",
				r["power(0.95)"].Iterations, r["mg-wcycle"].Iterations)
		}
	}
	// Scalability: classical sweeps grow with refinement, multigrid cycles
	// stay level (within 2×).
	if r2["gauss-seidel"].Iterations < r1["gauss-seidel"].Iterations*3/2 {
		t.Errorf("GS sweeps did not grow under refinement: %d -> %d",
			r1["gauss-seidel"].Iterations, r2["gauss-seidel"].Iterations)
	}
	if r2["mg-wcycle"].Iterations > 2*r1["mg-wcycle"].Iterations {
		t.Errorf("multigrid cycles not level: %d -> %d",
			r1["mg-wcycle"].Iterations, r2["mg-wcycle"].Iterations)
	}
}
