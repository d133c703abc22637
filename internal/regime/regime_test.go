package regime

import (
	"math"
	"testing"

	"cdrstoch/internal/core"
	"cdrstoch/internal/dist"
	"cdrstoch/internal/multigrid"
)

// loopBase returns the shared loop parameters (noise supplied per regime).
func loopBase(t testing.TB) core.Spec {
	t.Helper()
	h := 1.0 / 16
	return core.Spec{
		GridStep:          h,
		PhaseMax:          0.5,
		CorrectionStep:    2 * h,
		TransitionDensity: 0.5,
		MaxRunLength:      2,
		CounterLen:        3,
		Threshold:         0.5,
	}
}

func mkDrift(t testing.TB, h, mean float64) *dist.PMF {
	t.Helper()
	d, err := dist.DriftPMF(dist.DriftSpec{Step: h, Max: 2 * h, Mean: mean, Shape: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// burstSpec returns a quiet regime (σ=0.05) interrupted by interference
// bursts (σ=0.18) with mean dwell times of 200 and 20 bits.
func burstSpec(t testing.TB) Spec {
	t.Helper()
	base := loopBase(t)
	drift := mkDrift(t, base.GridStep, base.GridStep/16)
	return Spec{
		Base: base,
		Regimes: []Regime{
			{Name: "quiet", EyeJitter: dist.NewGaussian(0, 0.05), Drift: drift},
			{Name: "burst", EyeJitter: dist.NewGaussian(0, 0.18), Drift: drift},
		},
		Switch: [][]float64{
			{1 - 1.0/200, 1.0 / 200},
			{1.0 / 20, 1 - 1.0/20},
		},
	}
}

func TestValidate(t *testing.T) {
	good := burstSpec(t)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := good
	bad.Regimes = nil
	if err := bad.Validate(); err == nil {
		t.Error("no regimes accepted")
	}
	bad = good
	bad.Switch = [][]float64{{1}}
	if err := bad.Validate(); err == nil {
		t.Error("wrong switch shape accepted")
	}
	bad = good
	bad.Switch = [][]float64{{0.5, 0.4}, {0.1, 0.9}}
	if err := bad.Validate(); err == nil {
		t.Error("deficient switch row accepted")
	}
	bad = good
	bad.Switch = [][]float64{{1.5, -0.5}, {0.1, 0.9}}
	if err := bad.Validate(); err == nil {
		t.Error("negative switch entry accepted")
	}
	bad = good
	bad.Regimes = []Regime{{Name: "x", EyeJitter: nil, Drift: mkDrift(t, good.Base.GridStep, 0)}}
	bad.Switch = [][]float64{{1}}
	if err := bad.Validate(); err == nil {
		t.Error("regime without eye law accepted")
	}
}

// TestSingleRegimeEqualsCore: one regime with an identity switch is
// bit-for-bit the first-order core model.
func TestSingleRegimeEqualsCore(t *testing.T) {
	base := loopBase(t)
	drift := mkDrift(t, base.GridStep, base.GridStep/16)
	eye := dist.NewGaussian(0, 0.08)
	spec := Spec{
		Base:    base,
		Regimes: []Regime{{Name: "only", EyeJitter: eye, Drift: drift}},
		Switch:  [][]float64{{1}},
	}
	m, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	coreSpec := base
	coreSpec.EyeJitter = eye
	coreSpec.Drift = drift
	ref, err := core.Build(coreSpec)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() != ref.NumStates() {
		t.Fatalf("state counts %d vs %d", m.NumStates(), ref.NumStates())
	}
	for i := 0; i < ref.NumStates(); i++ {
		c1, v1 := ref.P.Row(i)
		c2, v2 := m.P.Row(i)
		if len(c1) != len(c2) {
			t.Fatalf("row %d nnz %d vs %d", i, len(c1), len(c2))
		}
		for k := range c1 {
			if c1[k] != c2[k] || math.Abs(v1[k]-v2[k]) > 1e-15 {
				t.Fatalf("row %d entry %d differs", i, k)
			}
		}
	}
}

func TestRegimeMarginalMatchesSwitchChain(t *testing.T) {
	spec := burstSpec(t)
	m, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := m.SolveDirect()
	if err != nil {
		t.Fatal(err)
	}
	marg := m.RegimeMarginal(pi)
	// The regime process is autonomous: its marginal is the 2-state
	// switch chain's stationary vector (b, a)/(a+b).
	a, b := spec.Switch[0][1], spec.Switch[1][0]
	want := []float64{b / (a + b), a / (a + b)}
	for r := range want {
		if math.Abs(marg[r]-want[r]) > 1e-9 {
			t.Fatalf("regime %d occupancy %g, want %g", r, marg[r], want[r])
		}
	}
}

func TestConditionalBEROrdering(t *testing.T) {
	m, err := Build(burstSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	pi, err := m.SolveDirect()
	if err != nil {
		t.Fatal(err)
	}
	cond := m.ConditionalBER(pi)
	if !(cond[1] > 10*cond[0]) {
		t.Fatalf("burst BER %g not far above quiet BER %g", cond[1], cond[0])
	}
	total := m.BER(pi)
	marg := m.RegimeMarginal(pi)
	mix := marg[0]*cond[0] + marg[1]*cond[1]
	if math.Abs(total-mix) > 1e-12 {
		t.Fatalf("BER %g != regime mixture %g", total, mix)
	}
}

// TestBurstsClusterFrameErrors: with errors concentrated in bursts, the
// exact frame error rate sits clearly below the i.i.d. estimate at the
// same BER — the quantitative signature of correlated interference the
// paper's industrial anecdote describes.
func TestBurstsClusterFrameErrors(t *testing.T) {
	m, err := Build(burstSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	pi, err := m.SolveDirect()
	if err != nil {
		t.Fatal(err)
	}
	ber := m.BER(pi)
	frame := 512
	fer, err := m.FrameErrorRate(pi, frame)
	if err != nil {
		t.Fatal(err)
	}
	iid := 1 - math.Pow(1-ber, float64(frame))
	if fer >= 0.9*iid {
		t.Fatalf("no clustering: FER %g vs i.i.d. %g (BER %g)", fer, iid, ber)
	}
	if _, err := m.FrameErrorRate(pi, 0); err == nil {
		t.Error("zero frame accepted")
	}
}

func TestMultigridSolveMatchesDirect(t *testing.T) {
	m, err := Build(burstSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	pi, res, err := m.Solve(multigrid.Config{Tol: 1e-12})
	if err != nil {
		t.Fatalf("%v (%v)", err, res)
	}
	ref, err := m.SolveDirect()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if math.Abs(pi[i]-ref[i]) > 1e-9 {
			t.Fatalf("pi[%d]: %g vs %g", i, pi[i], ref[i])
		}
	}
	ch, err := m.Chain()
	if err != nil {
		t.Fatal(err)
	}
	if !ch.IsErgodic() {
		t.Fatal("regime model not ergodic")
	}
}

// TestColdScheduleCycles checks the default cold schedule — W-cycles
// doubled on the phase-pair levels only — against the classic all-levels
// W(2,2) on a burst model with a counter-merge tail: no more than 2 %
// extra cycles and the same BER to 1e−9 relative.
func TestColdScheduleCycles(t *testing.T) {
	spec := burstSpec(t)
	spec.Base.CounterLen = 8
	m, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	pi, cold, err := m.Solve(multigrid.Config{})
	if err != nil {
		t.Fatal(err)
	}
	piClassic, classic, err := m.Solve(multigrid.Config{Cycle: multigrid.WCycle, PreSmooth: 2, PostSmooth: 2})
	if err != nil {
		t.Fatal(err)
	}
	pairParts, err := multigrid.BuildPairHierarchy(m.M, m.R*m.D*m.C, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.LevelSizes) <= len(pairParts)+1 {
		t.Fatalf("levels %v: no merge tail below %d pair levels", cold.LevelSizes, len(pairParts))
	}
	t.Logf("cycles %d (classic %d)", cold.Cycles, classic.Cycles)
	if float64(cold.Cycles) > 1.02*float64(classic.Cycles) {
		t.Errorf("cycles %d vs classic %d: more than +2 %%", cold.Cycles, classic.Cycles)
	}
	ber, berClassic := m.BER(pi), m.BER(piClassic)
	if rel := math.Abs(ber-berClassic) / berClassic; rel > 1e-9 {
		t.Errorf("BER %.12e vs classic %.12e: relative deviation %.2e", ber, berClassic, rel)
	}
}
