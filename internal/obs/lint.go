package obs

import (
	"fmt"
	"sort"
	"strings"
)

// LintMetrics checks every metric name in the snapshot against the
// repository's naming convention and the Prometheus exposition mapping,
// returning one message per violation (empty means clean). It is the
// engine of the metrics-lint CI stage.
//
// The convention: names are lowercase-ish identifiers with '.' as the
// one documented namespace separator ("serve.cache_hits",
// "cost.analyze.cpu_seconds"). The lint asserts that Prometheus
// sanitization is the identity apart from that fixed '.'→'_' mapping —
// no silently mangled characters, no leading digit — and that no two
// registered metrics collide after sanitization (families must stay
// distinct, or two metrics would silently merge in the exposition).
func (s Snapshot) LintMetrics() []string {
	var problems []string
	exposed := map[string][]string{} // exposed family name -> registry names

	check := func(name string) {
		want := strings.ReplaceAll(name, ".", "_")
		got := promName(name)
		if got != want {
			problems = append(problems,
				fmt.Sprintf("metric %q: prometheus sanitization rewrites it to %q (only '.' may map to '_')", name, got))
		}
		if name == "" || (name[0] >= '0' && name[0] <= '9') || name[0] == '.' {
			problems = append(problems,
				fmt.Sprintf("metric %q: must start with a letter or underscore", name))
		}
		exposed[got] = append(exposed[got], name)
	}

	for name := range s.Counters {
		check(name)
	}
	for name := range s.Gauges {
		check(name)
	}
	for name := range s.Histograms {
		check(name)
	}

	families := make([]string, 0, len(exposed))
	for f := range exposed {
		families = append(families, f)
	}
	sort.Strings(families)
	for _, f := range families {
		if names := exposed[f]; len(names) > 1 {
			sort.Strings(names)
			problems = append(problems,
				fmt.Sprintf("metrics %v collide after prometheus sanitization (all expose as %q)", names, f))
		}
	}
	sort.Strings(problems)
	return problems
}
