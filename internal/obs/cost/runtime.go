package cost

import (
	"runtime/metrics"

	"cdrstoch/internal/obs"
)

// runtimeSamples is the fixed runtime/metrics read set behind the
// runtime.* gauges. Each entry maps one runtime sample to one (or, for
// histograms, two quantile) gauges under the runtime.* namespace. The
// set is deliberately small and fixed-cardinality: scheduler decisions
// need GC pressure, heap size, scheduling latency, and goroutine count —
// not the full runtime/metrics catalogue.
var runtimeSamples = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/total:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

// RegisterRuntimeGauges exports the process's GC and scheduler health
// alongside the solver metrics: each runtime.* gauge is a computed gauge
// (obs.Registry.GaugeFunc) that reads its runtime/metrics sample when a
// snapshot is taken, so every scrape sees current values and no
// goroutine polls in between. Samples the running Go version does not
// support are not registered, so the set degrades instead of panicking
// across Go versions. A nil registry is a no-op.
func RegisterRuntimeGauges(reg *obs.Registry) {
	kinds := map[string]metrics.ValueKind{}
	for _, d := range metrics.All() {
		kinds[d.Name] = d.Kind
	}
	for _, sample := range runtimeSamples {
		name := runtimeGaugeName(sample)
		switch kinds[sample] {
		case metrics.KindUint64:
			reg.GaugeFunc(name, func() float64 { return float64(readRuntime(sample).Uint64()) })
		case metrics.KindFloat64:
			reg.GaugeFunc(name, func() float64 { return readRuntime(sample).Float64() })
		case metrics.KindFloat64Histogram:
			reg.GaugeFunc(name+"_p50", func() float64 {
				return histQuantile(readRuntime(sample).Float64Histogram(), 0.5)
			})
			reg.GaugeFunc(name+"_p99", func() float64 {
				return histQuantile(readRuntime(sample).Float64Histogram(), 0.99)
			})
		}
	}
}

// readRuntime reads one runtime/metrics sample into a fresh buffer, so
// concurrent snapshots never share one.
func readRuntime(name string) metrics.Value {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value
}

// runtimeGaugeName maps a runtime/metrics name like
// "/gc/pauses:seconds" to a registry gauge name like
// "runtime.gc_pauses_seconds" — characters outside the metric-name
// convention (see obs.Snapshot.LintMetrics) become underscores.
func runtimeGaugeName(sample string) string {
	b := []byte("runtime.")
	for i := 0; i < len(sample); i++ {
		ch := sample[i]
		switch {
		case ch >= 'a' && ch <= 'z', ch >= 'A' && ch <= 'Z', ch >= '0' && ch <= '9':
			b = append(b, ch)
		case ch == '/' && i == 0:
			// drop the leading slash
		default:
			b = append(b, '_')
		}
	}
	return string(b)
}

// histQuantile estimates quantile q of a runtime Float64Histogram by
// walking bucket counts and returning the lower bound of the bucket
// where the cumulative count crosses q. Infinite bounds clamp to the
// nearest finite neighbour; an empty histogram reports 0.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum > target {
			lo := h.Buckets[i]
			if isInf(lo) {
				// -Inf lower bound: use the bucket's finite upper bound.
				lo = h.Buckets[i+1]
				if isInf(lo) {
					return 0
				}
			}
			return lo
		}
	}
	// q beyond the last populated bucket: the highest finite bound.
	for i := len(h.Buckets) - 1; i >= 0; i-- {
		if !isInf(h.Buckets[i]) {
			return h.Buckets[i]
		}
	}
	return 0
}

func isInf(v float64) bool { return v > 1e308 || v < -1e308 }
