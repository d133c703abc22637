package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: one bucket per power of two, upper bounds
// 2^histMinExp … 2^histMaxExp inclusive, plus an overflow bucket beyond
// the largest bound. The layout is fixed at compile time, so histograms
// from different processes (or different snapshots of the same process)
// merge exactly, bucket by bucket.
//
// The span covers nine decades below 1 and nine above: microsecond-scale
// stage latencies in milliseconds, iteration counts in the hundreds, and
// byte counts in the gigabytes all land inside the finite buckets.
const (
	histMinExp     = -20 // smallest upper bound 2^-20 ≈ 9.5e-7
	histMaxExp     = 30  // largest finite upper bound 2^30 ≈ 1.07e9
	histNumBuckets = histMaxExp - histMinExp + 1
)

// HistogramUpperBound returns the inclusive upper bound of finite bucket
// i (0 ≤ i < histNumBuckets), i.e. 2^(i+histMinExp).
func HistogramUpperBound(i int) float64 {
	return math.Ldexp(1, i+histMinExp)
}

// histBucketIndex maps a positive observation to its bucket: the
// smallest i with v ≤ HistogramUpperBound(i). Results ≥ histNumBuckets
// mean overflow.
func histBucketIndex(v float64) int {
	f, exp := math.Frexp(v) // v = f·2^exp, f ∈ [0.5, 1)
	idx := exp - histMinExp
	if f == 0.5 {
		idx-- // v is exactly 2^(exp-1): it belongs in the lower bucket
	}
	if idx < 0 {
		return 0
	}
	return idx
}

// Histogram is a log₂-bucketed distribution metric: fixed bucket layout,
// lock-free atomic counters, safe for concurrent use, and nil-tolerant
// like every other metric in this package. Observe never allocates, so
// hot solver loops can record per-iteration values unconditionally.
type Histogram struct {
	counts   [histNumBuckets]atomic.Int64
	overflow atomic.Int64
	sumBits  atomic.Uint64
}

// Observe records one value. Non-positive values land in the smallest
// bucket (the paper's measures are all non-negative; zeros come from
// e.g. instant cache replies). NaN is dropped.
//
// The sum update is a compare-and-swap loop on the float's bit pattern:
// under concurrent observers every contribution is added exactly once —
// a lost CAS retries against the fresh value, so contributions are never
// dropped or double-counted. Only the addition ORDER is scheduling-
// dependent, so concurrent runs may differ in the last ulps of Sum;
// integer-valued observations that fit a float64 exactly sum exactly.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	if v <= 0 {
		h.counts[0].Add(1)
		return
	}
	idx := histBucketIndex(v)
	if idx >= histNumBuckets {
		h.overflow.Add(1)
		return
	}
	h.counts[idx].Add(1)
}

// Time starts a stopwatch; the returned function stops it and records
// the elapsed time in milliseconds. Usage:
// defer reg.Histogram("solve_ms").Time()(). A nil histogram reads no
// clock and returns a no-op.
func (h *Histogram) Time() func() {
	if h == nil {
		return func() {}
	}
	start := time.Now()
	return func() { h.Observe(float64(time.Since(start)) / float64(time.Millisecond)) }
}

// HistogramBucket is one occupied bucket of a snapshot: Count
// observations with value ≤ Le (and above the next-lower bound).
type HistogramBucket struct {
	// Le is the inclusive upper bound of the bucket, always a power of 2.
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistogramStats is a point-in-time copy of a histogram. Buckets holds
// only occupied finite buckets, ascending by bound; Overflow counts
// observations beyond the largest finite bound. Count is the sum of all
// bucket counts (including overflow), so the derived cumulative series
// is always self-consistent even when the snapshot raced concurrent
// observers. Observe updates the sum before the bucket count, so a
// racing snapshot's Sum may transiently LEAD Count by the in-flight
// observations (never lag: a counted observation is always in Sum).
// Once observers quiesce, Sum and the bucket counts agree exactly.
type HistogramStats struct {
	Count    int64             `json:"count"`
	Sum      float64           `json:"sum"`
	Buckets  []HistogramBucket `json:"buckets,omitempty"`
	Overflow int64             `json:"overflow,omitempty"`
}

// Stats copies the current distribution. A nil histogram yields the zero
// stats.
func (h *Histogram) Stats() HistogramStats {
	if h == nil {
		return HistogramStats{}
	}
	s := HistogramStats{Sum: math.Float64frombits(h.sumBits.Load())}
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		s.Buckets = append(s.Buckets, HistogramBucket{Le: HistogramUpperBound(i), Count: c})
		s.Count += c
	}
	s.Overflow = h.overflow.Load()
	s.Count += s.Overflow
	return s
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by geometric
// interpolation within the containing bucket — the natural choice for
// log-scaled buckets, exact up to the factor-of-two bucket resolution.
// q outside [0, 1] clamps to the nearest end.
//
// Edge cases, pinned by tests:
//   - An empty distribution yields NaN for every q (as does q = NaN):
//     there is no value to estimate, and NaN poisons downstream
//     arithmetic instead of smuggling in a plausible zero.
//   - A quantile landing in the overflow bucket reports the largest
//     finite bound (2^30): the true value is only known to be beyond
//     it, so the estimate saturates rather than invents magnitude. A
//     distribution that is ALL overflow therefore reports 2^30 for
//     every q, including q = 0.
//   - A single observation v interpolates across its containing bucket
//     (Le/2, Le]: Le/2·2^q, i.e. the bucket's lower bound at q = 0
//     rising geometrically to its upper bound at q = 1 — the value is
//     recoverable only up to bucket resolution, never exactly.
func (s HistogramStats) Quantile(q float64) float64 {
	if s.Count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := 0.0
	for _, b := range s.Buckets {
		prev := cum
		cum += float64(b.Count)
		if cum >= rank {
			frac := (rank - prev) / float64(b.Count)
			// Bucket spans (Le/2, Le]; interpolate in log space.
			return b.Le / 2 * math.Pow(2, frac)
		}
	}
	return HistogramUpperBound(histNumBuckets - 1)
}
