package core

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"cdrstoch/internal/dist"
	"cdrstoch/internal/markov"
)

// tinySpec returns a deliberately small model (hundreds of states) so that
// exhaustive and dense reference computations stay fast.
func tinySpec(t testing.TB) Spec {
	t.Helper()
	h := 1.0 / 16
	drift, err := dist.DriftPMF(dist.DriftSpec{Step: h, Max: 2 * h, Mean: h / 4, Shape: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		GridStep:          h,
		PhaseMax:          0.5,
		CorrectionStep:    2 * h,
		TransitionDensity: 0.5,
		MaxRunLength:      2,
		EyeJitter:         dist.NewGaussian(0, 0.1),
		Drift:             drift,
		CounterLen:        2,
		Threshold:         0.5,
	}
}

func buildTiny(t testing.TB) *Model {
	t.Helper()
	m, err := Build(tinySpec(t))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDefaultSpecBuilds(t *testing.T) {
	m, err := Build(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() != m.D*m.C*m.M {
		t.Error("state count inconsistent")
	}
	if m.D != 4 || m.C != 15 || m.M != 97 {
		t.Errorf("default dims %d/%d/%d", m.D, m.C, m.M)
	}
	if m.P.NNZ() == 0 {
		t.Error("empty TPM")
	}
	if err := m.P.CheckStochastic(1e-9); err != nil {
		t.Error(err)
	}
}

func TestValidateRejections(t *testing.T) {
	base := tinySpec(t)
	mutate := []func(*Spec){
		func(s *Spec) { s.GridStep = 0 },
		func(s *Spec) { s.PhaseMax = 0.2 }, // below threshold
		func(s *Spec) { s.CorrectionStep = 0 },
		func(s *Spec) { s.CorrectionStep = 0.03 }, // not a grid multiple
		func(s *Spec) { s.TransitionDensity = -0.1 },
		func(s *Spec) { s.TransitionDensity = 1.5 },
		func(s *Spec) { s.TransitionDensity = 0; s.MaxRunLength = 0 },
		func(s *Spec) { s.MaxRunLength = -1 },
		func(s *Spec) { s.EyeJitter = nil },
		func(s *Spec) { s.Drift = nil },
		func(s *Spec) {
			d, _ := dist.DriftPMF(dist.DriftSpec{Step: 0.01, Max: 0.03, Mean: 0, Shape: 0.5})
			s.Drift = d // wrong step
		},
		func(s *Spec) { s.CounterLen = 0 },
		func(s *Spec) { s.Threshold = 0 },
	}
	for i, f := range mutate {
		s := base
		f(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestValidateRejectsUnindexableSpecs checks that Validate prices the
// frame before anything is built. A 1/65,536 UI grid at counter 4,096
// frames 4 × 8,191 × 98,305 = 3.2·10⁹ states, and a 1e−300 UI grid
// overflows an int conversion of its phase-grid size: both are rejected
// for their state count, and the default spec still passes.
func TestValidateRejectsUnindexableSpecs(t *testing.T) {
	fine, tiny := DefaultSpec(), DefaultSpec()
	fine.GridStep, fine.CounterLen = 1.0/65536, 4096
	tiny.GridStep = 1e-300
	for _, s := range []Spec{fine, tiny} {
		drift := *s.Drift
		drift.Step = s.GridStep
		s.Drift = &drift
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), "states exceed") {
			t.Errorf("GridStep %g, CounterLen %d: Validate returned %v, want a state-count rejection",
				s.GridStep, s.CounterLen, err)
		}
	}
	if err := DefaultSpec().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejectsDriftOrigin: the builders move the phase by the
// drift's support index k·GridStep, so a nonzero Origin — on the grid or
// off it — would be ignored; Validate must refuse it, including through
// the JSON wire form.
func TestValidateRejectsDriftOrigin(t *testing.T) {
	for _, origin := range []float64{1, 0.3, -2} {
		s := DefaultSpec()
		drift := *s.Drift
		drift.Origin = origin * s.GridStep
		s.Drift = &drift
		if err := s.Validate(); err == nil {
			t.Errorf("drift origin %g·GridStep accepted", origin)
		}
		if _, err := Build(s); err == nil {
			t.Errorf("Build accepted drift origin %g·GridStep", origin)
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var wire Spec
		if err := json.Unmarshal(b, &wire); err != nil {
			t.Fatal(err)
		}
		if wire.Drift.Origin != drift.Origin || wire.Validate() == nil {
			t.Errorf("wire spec with drift origin %g·GridStep accepted", origin)
		}
	}
	if err := DefaultSpec().Validate(); err != nil {
		t.Fatalf("default spec rejected: %v", err)
	}
}

func TestIndexRoundTrips(t *testing.T) {
	m := buildTiny(t)
	for d := 0; d < m.D; d++ {
		for c := 0; c < m.C; c++ {
			for mi := 0; mi < m.M; mi++ {
				idx := m.StateIndex(d, c, mi)
				gd, gc, gm := m.Coords(idx)
				if gd != d || gc != c || gm != mi {
					t.Fatalf("coords(%d) = (%d,%d,%d), want (%d,%d,%d)", idx, gd, gc, gm, d, c, mi)
				}
			}
		}
	}
	for mi := 0; mi < m.M; mi++ {
		if got := m.PhaseIndex(m.PhaseValue(mi)); got != mi {
			t.Fatalf("PhaseIndex(PhaseValue(%d)) = %d", mi, got)
		}
	}
	if m.PhaseIndex(-10) != 0 || m.PhaseIndex(10) != m.M-1 {
		t.Error("PhaseIndex clamping")
	}
	if m.PhaseValue(m.mid) != 0 {
		t.Error("mid phase must be zero")
	}
}

func TestCounterStepSemantics(t *testing.T) {
	m := buildTiny(t) // L = 2: counter values {-1, 0, +1}, indices {0,1,2}
	l := m.Spec.CounterLen
	// +1 from c=+1 overflows: reset to 0, retard by G.
	next, ov := counterAdvance(l, 2, +1)
	if next != 1 || ov != +1 {
		t.Errorf("overflow: next=%d overflow=%d", next, ov)
	}
	// -1 from c=-1 underflows: reset to 0, advance by G.
	next, ov = counterAdvance(l, 0, -1)
	if next != 1 || ov != -1 {
		t.Errorf("underflow: next=%d overflow=%d", next, ov)
	}
	// Interior moves emit no correction.
	next, ov = counterAdvance(l, 1, +1)
	if next != 2 || ov != 0 {
		t.Errorf("interior up: next=%d overflow=%d", next, ov)
	}
	if v := m.CounterValue(0); v != -1 {
		t.Errorf("CounterValue(0) = %d", v)
	}
}

func TestCounterLenOne(t *testing.T) {
	s := tinySpec(t)
	s.CounterLen = 1
	m, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if m.C != 1 {
		t.Fatalf("C = %d", m.C)
	}
	// Every detector decision immediately corrects.
	if _, ov := counterAdvance(1, 0, +1); ov != +1 {
		t.Error("L=1 must correct on every LEAD")
	}
}

func TestModelIsErgodic(t *testing.T) {
	m := buildTiny(t)
	ch, err := m.Chain()
	if err != nil {
		t.Fatal(err)
	}
	if !ch.IsIrreducible() {
		t.Fatal("model chain reducible")
	}
	if !ch.IsErgodic() {
		t.Fatal("model chain not ergodic")
	}
}

func TestSolveMatchesDirect(t *testing.T) {
	m := buildTiny(t)
	a, err := m.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := m.SolveDirect()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if math.Abs(a.Pi[i]-ref[i]) > 1e-9 {
			t.Fatalf("pi[%d]: mg %g vs gth %g", i, a.Pi[i], ref[i])
		}
	}
	if math.Abs(a.BER-m.BER(ref)) > 1e-12 {
		t.Error("BER differs between solvers")
	}
}

func TestMarginalsSumToOne(t *testing.T) {
	m := buildTiny(t)
	pi, err := m.SolveDirect()
	if err != nil {
		t.Fatal(err)
	}
	for name, marg := range map[string][]float64{
		"phase":   m.PhaseMarginal(pi),
		"counter": m.CounterMarginal(pi),
		"data":    m.DataMarginal(pi),
	} {
		sum := 0.0
		for _, v := range marg {
			if v < -1e-15 {
				t.Errorf("%s marginal has negative mass", name)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s marginal sums to %g", name, sum)
		}
	}
}

func TestPhasePDFAndJitterPDF(t *testing.T) {
	m := buildTiny(t)
	pi, err := m.SolveDirect()
	if err != nil {
		t.Fatal(err)
	}
	pdf := m.PhasePDF(pi)
	integral := 0.0
	for _, v := range pdf {
		integral += v * m.Spec.GridStep
	}
	if math.Abs(integral-1) > 1e-9 {
		t.Errorf("phase PDF integrates to %g", integral)
	}
	jpdf, err := m.PhasePlusJitterPDF(pi, -1, 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	jint := 0.0
	for _, v := range jpdf {
		jint += v * (2.0 / 200)
	}
	// n_w tails beyond ±1 UI are negligible at sigma = 0.1.
	if math.Abs(jint-1) > 1e-6 {
		t.Errorf("jitter PDF integrates to %g", jint)
	}
	if _, err := m.PhasePlusJitterPDF(pi, 1, -1, 10); err == nil {
		t.Error("inverted grid accepted")
	}
}

func TestBERMonotoneInEyeJitter(t *testing.T) {
	low := tinySpec(t)
	high := tinySpec(t)
	high.EyeJitter = dist.NewGaussian(0, 0.2)
	mLow, err := Build(low)
	if err != nil {
		t.Fatal(err)
	}
	mHigh, err := Build(high)
	if err != nil {
		t.Fatal(err)
	}
	piLow, err := mLow.SolveDirect()
	if err != nil {
		t.Fatal(err)
	}
	piHigh, err := mHigh.SolveDirect()
	if err != nil {
		t.Fatal(err)
	}
	berLow, berHigh := mLow.BER(piLow), mHigh.BER(piHigh)
	if berLow <= 0 || berHigh <= 0 {
		t.Fatalf("BERs must be positive: %g %g", berLow, berHigh)
	}
	if berHigh <= berLow {
		t.Fatalf("BER not monotone: low %g, high %g", berLow, berHigh)
	}
}

func TestSlipSetAndStats(t *testing.T) {
	m := buildTiny(t)
	set := m.SlipSet()
	count := 0
	for idx, in := range set {
		phi := m.PhaseValue(idx % m.M)
		want := phi >= 0.5 || phi <= -0.5
		if in != want {
			t.Fatalf("slip set wrong at phi=%g", phi)
		}
		if in {
			count++
		}
	}
	if count != 2*m.D*m.C {
		t.Errorf("slip states = %d, want %d", count, 2*m.D*m.C)
	}
	pi, err := m.SolveDirect()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.SlipStats(pi)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Flux <= 0 || math.IsInf(stats.MeanTimeBetween, 1) {
		t.Fatalf("slip stats degenerate: %+v", stats)
	}
	mts, err := m.MeanTimeToSlip()
	if err != nil {
		t.Fatal(err)
	}
	if mts <= 0 {
		t.Fatalf("mean time to slip = %g", mts)
	}
	// The flux-based between-slip time and the locked-start hitting time
	// agree within an order of magnitude on this high-noise toy model.
	ratio := mts / stats.MeanTimeBetween
	if ratio < 0.1 || ratio > 10 {
		t.Fatalf("slip measures inconsistent: hit %g vs flux %g", mts, stats.MeanTimeBetween)
	}
}

func TestSlipQuasiStationary(t *testing.T) {
	m := buildTiny(t)
	qs, err := m.SlipQuasiStationary()
	if err != nil {
		t.Fatal(err)
	}
	if !qs.Converged {
		t.Fatalf("not converged: %+v", qs)
	}
	if qs.HazardPerStep <= 0 || qs.HazardPerStep >= 1 {
		t.Fatalf("hazard %g", qs.HazardPerStep)
	}
	// The hazard and the stationary-flux slip rate agree within a factor
	// of a few on this small model.
	pi, err := m.SolveDirect()
	if err != nil {
		t.Fatal(err)
	}
	flux, err := m.SlipStats(pi)
	if err != nil {
		t.Fatal(err)
	}
	ratio := qs.HazardPerStep * flux.MeanTimeBetween
	if ratio < 0.2 || ratio > 5 {
		t.Fatalf("hazard %g vs flux rate %g", qs.HazardPerStep, 1/flux.MeanTimeBetween)
	}
	// The conditioned BER is a valid probability and differs from the
	// unconditioned one (the surviving ensemble excludes the slip set).
	condBER := m.BER(qs.Nu)
	if condBER <= 0 || condBER >= 1 {
		t.Fatalf("conditioned BER %g", condBER)
	}
}

// TestDescriptorMatchesDirectBuild: the descriptor has five terms over
// the full product space, and Build's P — its materialization — matches
// the direct per-branch assembly entry by entry.
func TestDescriptorMatchesDirectBuild(t *testing.T) {
	m := buildTiny(t)
	d, err := m.BuildDescriptor()
	if err != nil {
		t.Fatal(err)
	}
	if d.Dim() != m.NumStates() {
		t.Fatalf("descriptor dim %d, model %d", d.Dim(), m.NumStates())
	}
	if d.NumTerms() != 5 {
		t.Errorf("terms = %d, want 5", d.NumTerms())
	}
	ref, _ := referenceChain(t, m.Spec)
	assertSameMatrix(t, m.P, ref, 1e-12)
}

func TestDescriptorStationaryMatches(t *testing.T) {
	m := buildTiny(t)
	d, err := m.BuildDescriptor()
	if err != nil {
		t.Fatal(err)
	}
	ch, err := markov.NewOperator(d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ch.StationaryPower(markov.Options{Tol: 1e-12, MaxIter: 200000, Damping: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual > 1e-11 {
		t.Fatalf("descriptor power residual %g", res.Residual)
	}
	pi := res.Pi
	ref, err := m.SolveDirect()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if math.Abs(pi[i]-ref[i]) > 1e-8 {
			t.Fatalf("pi[%d]: kron %g vs gth %g", i, pi[i], ref[i])
		}
	}
}

// TestNetworkMatchesDirectBuild: with the eye jitter replaced by the same
// grid PMF on both sides, the explicit FSM-network chain and the direct
// construction must agree row by row on the reachable states.
func TestNetworkMatchesDirectBuild(t *testing.T) {
	s := tinySpec(t)
	nwPMF, err := dist.Quantize(dist.NewGaussian(0, 0.1), s.GridStep, -4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.EyeJitter = nwPMF // PMF satisfies dist.Continuous
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
	if len(ch.States) == 0 || len(ch.States) > m.NumStates() {
		t.Fatalf("reachable states = %d", len(ch.States))
	}
	// Machine registration order: data, pd, counter, phase.
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
			t.Fatalf("state %v: nnz %d (direct) vs %d (network)", tuple, len(dcols), len(netRow))
		}
		for k, j := range dcols {
			if math.Abs(netRow[j]-dvals[k]) > 1e-12 {
				t.Fatalf("state %v -> %d: direct %g vs network %g", tuple, j, dvals[k], netRow[j])
			}
		}
	}
}

func TestAsNetworkRequiresPMF(t *testing.T) {
	m := buildTiny(t)
	if _, err := m.AsNetwork(nil); err == nil {
		t.Error("nil PMF accepted")
	}
}

func TestFigureAnnotations(t *testing.T) {
	m := buildTiny(t)
	a, err := m.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	header := m.FigureHeader(a.BER)
	footer := m.FigureFooter(a)
	for _, want := range []string{"COUNTER: 2", "STDnw:", "MAXnr:", "BER:"} {
		if !contains(header, want) {
			t.Errorf("header missing %q: %s", want, header)
		}
	}
	for _, want := range []string{"Size:", "Iter:", "Matrixformtime:", "Solvetime:"} {
		if !contains(footer, want) {
			t.Errorf("footer missing %q: %s", want, footer)
		}
	}
	if m.Describe() == "" {
		t.Error("empty Describe")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestLockingBehavior: with modest noise, the stationary phase-error
// distribution must concentrate near zero (the loop locks).
func TestLockingBehavior(t *testing.T) {
	m := buildTiny(t)
	pi, err := m.SolveDirect()
	if err != nil {
		t.Fatal(err)
	}
	marg := m.PhaseMarginal(pi)
	nearLock := 0.0
	for mi, p := range marg {
		if math.Abs(m.PhaseValue(mi)) <= 0.25 {
			nearLock += p
		}
	}
	if nearLock < 0.8 {
		t.Fatalf("only %g of the mass within ±0.25 UI; loop failed to lock", nearLock)
	}
}

// TestDriftShiftsLockPoint: a strong positive-mean n_r pushes the
// stationary phase mean positive relative to a zero-mean drift.
func TestDriftShiftsLockPoint(t *testing.T) {
	mean := func(s Spec) float64 {
		m, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		pi, err := m.SolveDirect()
		if err != nil {
			t.Fatal(err)
		}
		marg := m.PhaseMarginal(pi)
		mu := 0.0
		for mi, p := range marg {
			mu += p * m.PhaseValue(mi)
		}
		return mu
	}
	s0 := tinySpec(t)
	d0, err := dist.DriftPMF(dist.DriftSpec{Step: s0.GridStep, Max: 2 * s0.GridStep, Mean: 0, Shape: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	s0.Drift = d0
	sPos := tinySpec(t)
	dPos, err := dist.DriftPMF(dist.DriftSpec{Step: s0.GridStep, Max: 2 * s0.GridStep, Mean: s0.GridStep / 2, Shape: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	sPos.Drift = dPos
	if mean(sPos) <= mean(s0) {
		t.Fatal("positive drift did not shift the lock point")
	}
}

func TestHierarchyShape(t *testing.T) {
	m := buildTiny(t)
	parts, err := m.Hierarchy(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) == 0 {
		t.Fatal("no hierarchy levels")
	}
	if parts[0].NumStates() != m.NumStates() {
		t.Error("finest partition size mismatch")
	}
}

// TestBERNeverBelowFloor: BER must stay within [0, 1] and positive for a
// Gaussian jitter model (the tails never vanish exactly).
func TestBERBounds(t *testing.T) {
	m := buildTiny(t)
	pi, err := m.SolveDirect()
	if err != nil {
		t.Fatal(err)
	}
	ber := m.BER(pi)
	if ber <= 0 || ber >= 1 {
		t.Fatalf("BER = %g", ber)
	}
	ch, err := markov.New(m.P)
	if err != nil {
		t.Fatal(err)
	}
	if r := ch.Residual(pi); r > 1e-10 {
		t.Fatalf("GTH solution residual %g", r)
	}
}
