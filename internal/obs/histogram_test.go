package obs

import (
	"math"
	"sync"
	"testing"
)

func TestHistogramBucketIndex(t *testing.T) {
	cases := []struct {
		v    float64
		want int // expected bucket index
	}{
		{1, 20},      // exactly 2^0 → upper bound 1
		{1.5, 21},    // (1, 2] → upper bound 2
		{2, 21},      // exactly 2^1 stays in its own bucket
		{2.0001, 22}, // just past a bound moves up
		{0.5, 19},    // exactly 2^-1
		{1e-9, 0},    // below the smallest bound clamps to bucket 0
	}
	for _, c := range cases {
		if got := histBucketIndex(c.v); got != c.want {
			t.Errorf("histBucketIndex(%g) = %d (le=%g), want %d (le=%g)",
				c.v, got, HistogramUpperBound(got), c.want, HistogramUpperBound(c.want))
		}
	}
	// The invariant behind the layout: v ≤ bound(idx) and v > bound(idx-1).
	for _, v := range []float64{0.001, 0.1, 0.7, 1, 3, 100, 1e6, 1e9} {
		idx := histBucketIndex(v)
		if v > HistogramUpperBound(idx) {
			t.Errorf("v=%g above its bucket bound %g", v, HistogramUpperBound(idx))
		}
		if idx > 0 && v <= HistogramUpperBound(idx-1) {
			t.Errorf("v=%g fits the lower bucket %g", v, HistogramUpperBound(idx-1))
		}
	}
}

func TestHistogramObserveAndStats(t *testing.T) {
	var h Histogram
	for _, v := range []float64{0.75, 3, 3, 2e9, 0, -1, math.NaN()} {
		h.Observe(v)
	}
	s := h.Stats()
	if s.Count != 6 { // NaN dropped; 0 and -1 land in bucket 0
		t.Errorf("count = %d, want 6", s.Count)
	}
	if s.Overflow != 1 {
		t.Errorf("overflow = %d, want 1 (2e9 > 2^30)", s.Overflow)
	}
	wantSum := 0.75 + 3 + 3 + 2e9 - 1
	if math.Abs(s.Sum-wantSum) > 1e-6 {
		t.Errorf("sum = %g, want %g", s.Sum, wantSum)
	}
	// Occupied buckets ascend and cover exactly the observed values.
	counts := map[float64]int64{}
	prev := math.Inf(-1)
	for _, b := range s.Buckets {
		if b.Le <= prev {
			t.Errorf("buckets not ascending: %g after %g", b.Le, prev)
		}
		prev = b.Le
		counts[b.Le] = b.Count
	}
	if counts[1] != 1 || counts[4] != 2 {
		t.Errorf("buckets = %+v", s.Buckets)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	s := h.Stats()
	if s.Count != 0 || len(s.Buckets) != 0 {
		t.Errorf("nil stats = %+v", s)
	}
	if q := s.Quantile(0.5); !math.IsNaN(q) {
		t.Errorf("empty quantile = %g, want NaN", q)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(10) // all mass in the (8, 16] bucket
	}
	s := h.Stats()
	for _, q := range []float64{0.1, 0.5, 0.99} {
		v := s.Quantile(q)
		if v <= 8 || v > 16 {
			t.Errorf("q%.2f = %g outside the only occupied bucket (8, 16]", q, v)
		}
	}
	// Quantiles are monotone in q.
	if s.Quantile(0.9) < s.Quantile(0.1) {
		t.Error("quantiles not monotone")
	}

	// With mass in the overflow bucket, high quantiles report the largest
	// finite bound rather than inventing a value.
	var o Histogram
	o.Observe(1e12)
	if got := o.Stats().Quantile(0.99); got != HistogramUpperBound(histNumBuckets-1) {
		t.Errorf("overflow quantile = %g", got)
	}
}

// TestHistogramQuantileEmpty pins the no-data contract: every quantile
// of an empty distribution is NaN — no value exists to estimate, and
// NaN poisons downstream arithmetic instead of smuggling in a plausible
// zero. A NaN q is equally unanswerable, even on populated data.
func TestHistogramQuantileEmpty(t *testing.T) {
	var h Histogram
	for _, q := range []float64{0, 0.5, 1, -3, 7, math.NaN()} {
		if got := h.Stats().Quantile(q); !math.IsNaN(got) {
			t.Errorf("empty histogram Quantile(%g) = %g, want NaN", q, got)
		}
	}
	h.Observe(10)
	if got := h.Stats().Quantile(math.NaN()); !math.IsNaN(got) {
		t.Errorf("Quantile(NaN) = %g on populated histogram, want NaN", got)
	}
}

// TestHistogramQuantileAllOverflow pins the saturation contract: when
// every observation landed beyond the largest finite bound, all that is
// known is "bigger than 2^30", so every quantile — including q=0 —
// reports exactly that bound rather than inventing magnitude.
func TestHistogramQuantileAllOverflow(t *testing.T) {
	var h Histogram
	for i := 0; i < 5; i++ {
		h.Observe(1e12)
	}
	s := h.Stats()
	if s.Overflow != 5 || len(s.Buckets) != 0 {
		t.Fatalf("overflow setup wrong: %+v", s)
	}
	want := HistogramUpperBound(histNumBuckets - 1) // 2^30
	for _, q := range []float64{0, 0.01, 0.5, 1} {
		if got := s.Quantile(q); got != want {
			t.Errorf("all-overflow Quantile(%g) = %g, want %g", q, got, want)
		}
	}
}

// TestHistogramQuantileSingleObservation pins the one-sample contract:
// the estimate interpolates geometrically across the containing bucket
// (Le/2, Le] — its lower bound at q=0, Le/2·2^q in between, the upper
// bound at q=1. The observed value itself is recoverable only up to
// the factor-of-two bucket resolution.
func TestHistogramQuantileSingleObservation(t *testing.T) {
	var h Histogram
	h.Observe(100) // bucket (64, 128]
	s := h.Stats()
	for _, tc := range []struct{ q, want float64 }{
		{0, 64},
		{0.5, 64 * math.Sqrt2},
		{1, 128},
		{-1, 64}, // clamps to q=0
		{2, 128}, // clamps to q=1
	} {
		if got := s.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("single-sample Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	// The bucket's span always brackets the actual observation.
	if lo, hi := s.Quantile(0), s.Quantile(1); lo >= 100 || hi < 100 {
		t.Errorf("bucket [%g, %g] does not bracket the observation", lo, hi)
	}
}

func TestHistogramObserveZeroAlloc(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Observe(3.14) }); n != 0 {
		t.Errorf("Observe allocates %.1f/op", n)
	}
	var nilH *Histogram
	if n := testing.AllocsPerRun(1000, func() { nilH.Observe(3.14) }); n != 0 {
		t.Errorf("nil Observe allocates %.1f/op", n)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= perG; i++ {
				h.Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	s := h.Stats()
	if s.Count != goroutines*perG {
		t.Errorf("count = %d, want %d", s.Count, goroutines*perG)
	}
	wantSum := float64(goroutines) * perG * (perG + 1) / 2
	if math.Abs(s.Sum-wantSum) > 1e-6*wantSum {
		t.Errorf("sum = %g, want %g", s.Sum, wantSum)
	}
}

// TestHistogramSumExactUnderContention verifies the documented CAS
// guarantee: under concurrent observers every contribution lands exactly
// once. The observations are small integers, whose float64 sums are
// exact regardless of addition order, so the final Sum must match the
// closed form EXACTLY — a single lost or double-counted CAS shifts it by
// at least 1. Concurrent Stats readers run throughout to pin the
// snapshot path's race-freedom under -race.
func TestHistogramSumExactUnderContention(t *testing.T) {
	var h Histogram
	const goroutines, perG = 8, 20000
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Snapshots taken mid-race must stay self-consistent:
				// Count is derived from the bucket counts.
				s := h.Stats()
				var fromBuckets int64
				for _, b := range s.Buckets {
					fromBuckets += b.Count
				}
				if s.Count != fromBuckets+s.Overflow {
					t.Errorf("snapshot count %d != buckets %d + overflow %d",
						s.Count, fromBuckets, s.Overflow)
					return
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(1 + (g+i)%2)) // 1s and 2s, exact in float64
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	s := h.Stats()
	if s.Count != goroutines*perG {
		t.Errorf("count = %d, want %d", s.Count, goroutines*perG)
	}
	// Each goroutine observes perG/2 ones and perG/2 twos.
	wantSum := float64(goroutines) * perG / 2 * 3
	if s.Sum != wantSum {
		t.Errorf("sum = %g, want exactly %g (a lost or doubled CAS moves it by >= 1)", s.Sum, wantSum)
	}
}

func TestRegistryHistogram(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("serve.solve_ms").Observe(12)
	reg.Histogram("serve.solve_ms").Observe(40)
	s := reg.Snapshot()
	h, ok := s.Histograms["serve.solve_ms"]
	if !ok || h.Count != 2 {
		t.Fatalf("snapshot histograms = %+v", s.Histograms)
	}
	// Nil registry: no-op, no panic.
	var nilReg *Registry
	nilReg.Histogram("x").Observe(1)
	if n := len(nilReg.Snapshot().Histograms); n != 0 {
		t.Errorf("nil registry has %d histograms", n)
	}
}
