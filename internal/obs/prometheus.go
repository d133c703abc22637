package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): one family per metric with HELP and TYPE
// lines, families sorted by exposed name. Counters and gauges map
// directly; histograms keep their recorded unit and emit the standard
// cumulative _bucket/_sum/_count series ending in the mandatory
// le="+Inf" bucket.
//
// Metric names are sanitized to the Prometheus alphabet ([a-zA-Z0-9_:],
// so "serve.http_200" exposes as "serve_http_200"); the HELP line
// preserves the registry's original name.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	type family struct {
		name string
		text string
	}
	var families []family
	add := func(name, text string) {
		families = append(families, family{name: name, text: text})
	}

	for orig, v := range s.Counters {
		name := promName(orig)
		add(name, fmt.Sprintf("# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			name, orig, name, name, v))
	}
	for orig, v := range s.Gauges {
		name := promName(orig)
		add(name, fmt.Sprintf("# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
			name, orig, name, name, promFloat(v)))
	}
	for orig, h := range s.Histograms {
		name := promName(orig)
		var b strings.Builder
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s histogram\n", name, orig, name)
		cum := int64(0)
		for _, bk := range h.Buckets {
			cum += bk.Count
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", name, promFloat(bk.Le), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
		fmt.Fprintf(&b, "%s_sum %s\n%s_count %d\n", name, promFloat(h.Sum), name, h.Count)
		add(name, b.String())
	}

	sort.Slice(families, func(i, j int) bool { return families[i].name < families[j].name })
	for _, f := range families {
		if _, err := io.WriteString(w, f.text); err != nil {
			return err
		}
	}
	return nil
}

// promName maps a registry metric name onto the Prometheus alphabet:
// every character outside [a-zA-Z0-9_:] (leading digits included)
// becomes '_'.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if !ok {
			b.WriteByte('_')
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// promFloat formats a float the way the exposition format expects,
// spelling infinities as +Inf/-Inf.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
