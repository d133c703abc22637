package markov

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestGroupInverse checks A# against its closed form on the two-state
// chain, its defining identities on random chains, and its length check.
func TestGroupInverse(t *testing.T) {
	// Two-state: I − P = (a+b)·(I − 1π), so A# = (I − P)/(a+b)².
	a, b := 0.3, 0.2
	c := twoState(t, a, b)
	aSharp, err := c.GroupInverse(wantTwoState(a, b))
	if err != nil {
		t.Fatal(err)
	}
	den := (a + b) * (a + b)
	want := [2][2]float64{{a / den, -a / den}, {-b / den, b / den}}
	for i := range want {
		for j := range want[i] {
			if got := aSharp.At(i, j); math.Abs(got-want[i][j]) > 1e-12 {
				t.Fatalf("A#[%d][%d] = %g, want %g", i, j, got, want[i][j])
			}
		}
	}
	if _, err := c.GroupInverse([]float64{1}); err == nil {
		t.Error("bad pi length accepted")
	}

	// Random chains: (I − P)A# = I − 1π, π·A# = 0 and A#·1 = 0.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(7)
		c := randomChain(t, n, rng)
		pi, err := c.StationaryDirect()
		if err != nil {
			return false
		}
		aSharp, err := c.GroupInverse(pi)
		if err != nil {
			return false
		}
		col := make([]float64, n)
		pcol := make([]float64, n)
		for j := 0; j < n; j++ {
			for i := range col {
				col[i] = aSharp.At(i, j)
			}
			c.P().MulVec(pcol, col)
			for i := 0; i < n; i++ {
				want := -pi[j]
				if i == j {
					want++
				}
				if math.Abs(col[i]-pcol[i]-want) > 1e-10 {
					return false
				}
			}
		}
		ones := make([]float64, n)
		for i := range ones {
			ones[i] = 1
		}
		left := make([]float64, n)
		right := make([]float64, n)
		aSharp.VecMul(left, pi)
		aSharp.MulVec(right, ones)
		for i := 0; i < n; i++ {
			if math.Abs(left[i]) > 1e-12 || math.Abs(right[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
