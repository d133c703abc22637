package passage

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cdrstoch/internal/spmat"
)

// symmetricWalk builds a symmetric random walk on {0..n-1} with reflecting
// ends (used with absorbing analysis by passing target sets).
func symmetricWalk(n int) *spmat.CSR {
	tr := spmat.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		if i == 0 {
			tr.Add(0, 0, 0.5)
			tr.Add(0, 1, 0.5)
		} else if i == n-1 {
			tr.Add(n-1, n-1, 0.5)
			tr.Add(n-1, n-2, 0.5)
		} else {
			tr.Add(i, i-1, 0.5)
			tr.Add(i, i+1, 0.5)
		}
	}
	return tr.ToCSR()
}

func randomStochasticCSR(n int, rng *rand.Rand) *spmat.CSR {
	tr := spmat.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		s := 0.0
		for j := range row {
			row[j] = rng.Float64() + 1e-3
			s += row[j]
		}
		for j := range row {
			tr.Add(i, j, row[j]/s)
		}
	}
	return tr.ToCSR()
}

// TestHittingTimesGamblersRuin: for the symmetric walk on {0..n-1} with the
// target {0, n-1}, the expected absorption time from i is i·(n-1-i)... for
// the *absorbed* walk. Our walk reflects at the ends, but states 0 and n-1
// are in the target so their rows never matter.
func TestHittingTimesGamblersRuin(t *testing.T) {
	n := 11
	p := symmetricWalk(n)
	target := make([]bool, n)
	target[0], target[n-1] = true, true
	times, err := HittingTimesDense(p, target)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := float64(i * (n - 1 - i))
		if math.Abs(times[i]-want) > 1e-9 {
			t.Errorf("t[%d] = %g, want %g", i, times[i], want)
		}
	}
}

func TestHittingTimesIterativeMatchesDense(t *testing.T) {
	n := 15
	p := symmetricWalk(n)
	target := make([]bool, n)
	target[0], target[n-1] = true, true
	dense, err := HittingTimesDense(p, target)
	if err != nil {
		t.Fatal(err)
	}
	iter, ok, err := HittingTimesIterative(p, target, IterOptions{Tol: 1e-12})
	if err != nil || !ok {
		t.Fatalf("iterative: ok=%v err=%v", ok, err)
	}
	for i := range dense {
		if math.Abs(dense[i]-iter[i]) > 1e-6*(1+dense[i]) {
			t.Errorf("t[%d]: dense %g vs iter %g", i, dense[i], iter[i])
		}
	}
}

func TestHittingTimesErrors(t *testing.T) {
	p := symmetricWalk(5)
	if _, err := HittingTimesDense(p, make([]bool, 3)); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := HittingTimesDense(p, make([]bool, 5)); err == nil {
		t.Error("empty target accepted")
	}
	all := []bool{true, true, true, true, true}
	times, err := HittingTimesDense(p, all)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range times {
		if v != 0 {
			t.Error("target states must have zero hitting time")
		}
	}
	if _, _, err := HittingTimesIterative(p, make([]bool, 5), IterOptions{}); err == nil {
		t.Error("iterative empty target accepted")
	}
}

func TestHittingTimesUnreachableTarget(t *testing.T) {
	// Two disconnected 2-cycles; target inside one of them only.
	tr := spmat.NewTriplet(4, 4)
	tr.Add(0, 1, 1)
	tr.Add(1, 0, 1)
	tr.Add(2, 3, 1)
	tr.Add(3, 2, 1)
	p := tr.ToCSR()
	target := []bool{true, false, false, false}
	if _, err := HittingTimesDense(p, target); err == nil {
		t.Error("unreachable target accepted by dense solver")
	}
}

func TestMeanFirstPassage(t *testing.T) {
	times := []float64{0, 10, 20}
	mfp, err := MeanFirstPassage([]float64{0, 0.5, 0.5}, times)
	if err != nil || math.Abs(mfp-15) > 1e-12 {
		t.Fatalf("MFP = %g err=%v", mfp, err)
	}
	// Unnormalized start mass is normalized internally.
	mfp2, err := MeanFirstPassage([]float64{0, 1, 1}, times)
	if err != nil || math.Abs(mfp2-15) > 1e-12 {
		t.Fatalf("MFP2 = %g", mfp2)
	}
	if _, err := MeanFirstPassage([]float64{1}, times); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := MeanFirstPassage([]float64{0, 0, 0}, times); err == nil {
		t.Error("zero mass accepted")
	}
	if _, err := MeanFirstPassage([]float64{-1, 1, 1}, times); err == nil {
		t.Error("negative mass accepted")
	}
}

func TestSlipFluxMatchesKac(t *testing.T) {
	// On an ergodic chain, mean return time to T is 1/pi(T) (Kac). The
	// entry-flux estimate equals pi(outside)·E[time between entries]; for a
	// singleton target with no self-loop, flux = pi(T) exactly.
	rng := rand.New(rand.NewSource(7))
	p := randomStochasticCSR(8, rng)
	pi, err := spmat.StationaryGTHCSR(p)
	if err != nil {
		t.Fatal(err)
	}
	target := make([]bool, 8)
	target[3] = true
	res, err := SlipFlux(p, pi, target)
	if err != nil {
		t.Fatal(err)
	}
	// flux = sum_{i != 3} pi_i P_{i,3} = pi_3 - pi_3 P_{3,3} (stationarity).
	want := pi[3] * (1 - p.At(3, 3))
	if math.Abs(res.Flux-want) > 1e-12 {
		t.Errorf("flux = %g, want %g", res.Flux, want)
	}
	if math.Abs(res.TargetMass-pi[3]) > 1e-15 {
		t.Error("target mass wrong")
	}
	if math.Abs(res.OutsideMass-(1-pi[3])) > 1e-12 {
		t.Error("outside mass wrong")
	}
	if math.Abs(res.MeanTimeBetween-res.OutsideMass/res.Flux) > 1e-9 {
		t.Error("mean time inconsistent with flux")
	}
}

// TestSlipFluxAgreesWithHittingTimes cross-validates the two routes to the
// mean time between entries on a chain where both are computable: the
// renewal identity says E_π̃[T_hit] ≈ OutsideMass/Flux − 1 ≤ MFP within a
// factor close to one for sets entered from a thin boundary; here we only
// require order-of-magnitude agreement, since the two measures differ by
// the conditioning at entry.
func TestSlipFluxAgreesWithHittingTimes(t *testing.T) {
	// Biased walk with a rarely-visited right end as target.
	n := 20
	tr := spmat.NewTriplet(n, n)
	up, down := 0.2, 0.5
	for i := 0; i < n; i++ {
		stay := 1 - up - down
		switch i {
		case 0:
			tr.Add(0, 0, stay+down)
			tr.Add(0, 1, up)
		case n - 1:
			tr.Add(n-1, n-1, stay+up)
			tr.Add(n-1, n-2, down)
		default:
			tr.Add(i, i-1, down)
			tr.Add(i, i, stay)
			tr.Add(i, i+1, up)
		}
	}
	p := tr.ToCSR()
	pi, err := spmat.StationaryGTHCSR(p)
	if err != nil {
		t.Fatal(err)
	}
	target := make([]bool, n)
	target[n-1] = true
	res, err := SlipFlux(p, pi, target)
	if err != nil {
		t.Fatal(err)
	}
	times, err := HittingTimesDense(p, target)
	if err != nil {
		t.Fatal(err)
	}
	// Start from the stationary distribution conditioned outside the target.
	from := make([]float64, n)
	for i := range from {
		if !target[i] {
			from[i] = pi[i]
		}
	}
	mfp, err := MeanFirstPassage(from, times)
	if err != nil {
		t.Fatal(err)
	}
	ratio := mfp / res.MeanTimeBetween
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("flux MTB %g vs MFP %g (ratio %g)", res.MeanTimeBetween, mfp, ratio)
	}
}

// Property: on random ergodic chains with a singleton target, the dense
// hitting times satisfy the defining linear relation t_i = 1 + Σ Q t.
func TestQuickHittingTimesSatisfyEquation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		p := randomStochasticCSR(n, rng)
		target := make([]bool, n)
		target[rng.Intn(n)] = true
		times, err := HittingTimesDense(p, target)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if target[i] {
				if times[i] != 0 {
					return false
				}
				continue
			}
			cols, vals := p.Row(i)
			want := 1.0
			for k, j := range cols {
				if !target[j] {
					want += vals[k] * times[j]
				}
			}
			if math.Abs(times[i]-want) > 1e-8*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
