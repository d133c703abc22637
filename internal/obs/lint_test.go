package obs

import (
	"strings"
	"testing"
)

func TestGaugeFuncEvaluatedAtSnapshot(t *testing.T) {
	reg := NewRegistry()
	v := 1.5
	reg.GaugeFunc("proc.computed", func() float64 { return v })
	if got := reg.Snapshot().Gauges["proc.computed"]; got != 1.5 {
		t.Errorf("computed gauge = %g, want 1.5", got)
	}
	v = 7.25
	if got := reg.Snapshot().Gauges["proc.computed"]; got != 7.25 {
		t.Errorf("computed gauge after update = %g, want 7.25", got)
	}
}

func TestGaugeFuncShadowsStoredGauge(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("both.ways").Set(1)
	reg.GaugeFunc("both.ways", func() float64 { return 2 })
	if got := reg.Snapshot().Gauges["both.ways"]; got != 2 {
		t.Errorf("computed gauge did not win the name conflict: %g", got)
	}
}

func TestGaugeFuncNilTolerant(t *testing.T) {
	var reg *Registry
	reg.GaugeFunc("x", func() float64 { return 1 }) // must not panic
	live := NewRegistry()
	live.GaugeFunc("y", nil) // nil fn ignored
	if _, ok := live.Snapshot().Gauges["y"]; ok {
		t.Error("nil gauge func registered")
	}
}

func TestLintMetricsCleanRegistry(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("serve.cache_hits").Inc()
	reg.Gauge("process.uptime_seconds").Set(1)
	reg.Histogram("cost.analyze.cpu_seconds").Observe(0.5)
	if probs := reg.Snapshot().LintMetrics(); len(probs) != 0 {
		t.Errorf("clean registry flagged: %v", probs)
	}
}

func TestLintMetricsFlagsMangledNames(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("serve.cache-hits").Inc() // '-' silently becomes '_'
	probs := reg.Snapshot().LintMetrics()
	if len(probs) != 1 || !strings.Contains(probs[0], "serve.cache-hits") {
		t.Errorf("mangled name not flagged: %v", probs)
	}
}

func TestLintMetricsFlagsLeadingDigit(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("9lives").Set(1)
	probs := reg.Snapshot().LintMetrics()
	found := false
	for _, p := range probs {
		if strings.Contains(p, "start with a letter") {
			found = true
		}
	}
	if !found {
		t.Errorf("leading digit not flagged: %v", probs)
	}
}

func TestLintMetricsFlagsSanitizationCollision(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("serve.cache.hits").Inc()
	reg.Counter("serve.cache_hits").Inc() // both expose as serve_cache_hits
	probs := reg.Snapshot().LintMetrics()
	found := false
	for _, p := range probs {
		if strings.Contains(p, "collide") {
			found = true
		}
	}
	if !found {
		t.Errorf("collision not flagged: %v", probs)
	}
}
