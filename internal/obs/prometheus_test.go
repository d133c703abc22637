package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// goldenSnapshot builds the deterministic registry state behind
// testdata/prometheus.golden: one of each metric kind, including a
// histogram with an overflow observation and a name needing sanitizing.
func goldenSnapshot() Snapshot {
	reg := NewRegistry()
	reg.Counter("serve.solves").Add(3)
	reg.Gauge("serve.cache_entries").Set(2.5)
	h := reg.Histogram("serve.solve_ms")
	h.Observe(0.75)
	h.Observe(3)
	h.Observe(3)
	h.Observe(2e9) // beyond the largest finite bound: overflow
	return reg.Snapshot()
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenSnapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "prometheus.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition diverged from golden (rerun with -update to accept):\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestWritePrometheusWellFormed checks structural validity independent of
// the golden bytes: every sample line parses, every family has HELP and
// TYPE, histogram buckets are cumulative and end at +Inf == count.
func TestWritePrometheusWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenSnapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	sample := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="[^"]+"\})? (\S+)$`)
	var bucketCounts []int64
	var histCount int64 = -1
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		m := sample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		if strings.HasPrefix(m[2], `{le=`) {
			v, err := strconv.ParseInt(m[3], 10, 64)
			if err != nil {
				t.Errorf("bucket value %q: %v", m[3], err)
			}
			bucketCounts = append(bucketCounts, v)
		}
		if m[1] == "serve_solve_ms_count" {
			histCount, _ = strconv.ParseInt(m[3], 10, 64)
		}
	}
	if len(bucketCounts) == 0 {
		t.Fatal("no bucket samples")
	}
	for i := 1; i < len(bucketCounts); i++ {
		if bucketCounts[i] < bucketCounts[i-1] {
			t.Errorf("bucket series not cumulative: %v", bucketCounts)
		}
	}
	if last := bucketCounts[len(bucketCounts)-1]; last != histCount {
		t.Errorf("+Inf bucket %d != count %d", last, histCount)
	}
	if !strings.Contains(buf.String(), `le="+Inf"`) {
		t.Error("missing mandatory +Inf bucket")
	}
	// Sanitizing: dots became underscores, HELP preserves the original.
	if !strings.Contains(buf.String(), "serve_solves 3") {
		t.Errorf("sanitized counter missing:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "# HELP serve_solves serve.solves") {
		t.Errorf("HELP does not preserve the registry name:\n%s", buf.String())
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"serve.solve_ms": "serve_solve_ms",
		"9lives":         "_lives",
		"a:b-c d":        "a:b_c_d",
		"ok_name":        "ok_name",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
