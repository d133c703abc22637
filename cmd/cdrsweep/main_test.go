package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smallSpecArgs shrinks the model to ~153 states so sweeps run in
// milliseconds.
var smallSpecArgs = []string{
	"-grid", "16", "-corr", "8", "-phasemax", "0.5", "-counter", "2",
	"-maxrun", "3", "-stdnw", "0.05",
	"-drift-max", "0.125", "-drift-mean", "0.01", "-drift-shape", "0.5",
}

func TestRunNoiseSweepConvergedExitsZero(t *testing.T) {
	for _, strict := range []bool{false, true} {
		args := append([]string{"-sweep", "noise", "-values", "0.05"}, smallSpecArgs...)
		if strict {
			args = append(args, "-strict")
		}
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("strict=%v: exit %d, stderr:\n%s", strict, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "stdnw") {
			t.Errorf("strict=%v: missing table header in output:\n%s", strict, stdout.String())
		}
		if strings.Contains(stderr.String(), "did not converge") {
			t.Errorf("strict=%v: unexpected convergence warning:\n%s", strict, stderr.String())
		}
	}
}

// TestRunNoiseSweepBatch drives the warm-started continuation chain
// through the CLI: later points of a smooth noise family must show the
// warm column, and the session summary line must account for them.
func TestRunNoiseSweepBatch(t *testing.T) {
	args := append([]string{"-sweep", "noise", "-batch", "-values", "0.05,0.052,0.054"}, smallSpecArgs...)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "warm") {
		t.Errorf("missing warm column:\n%s", out)
	}
	if !strings.Contains(out, "yes") {
		t.Errorf("no warm-started point in a smooth family:\n%s", out)
	}
	if !strings.Contains(out, "2 warm starts") || !strings.Contains(out, "2 setup reuses") {
		t.Errorf("missing batch summary:\n%s", out)
	}
	if strings.Contains(stderr.String(), "did not converge") {
		t.Errorf("unexpected convergence warning:\n%s", stderr.String())
	}
}

// TestRunCounterSweepBatch checks batch counter sweeps survive pattern
// changes between points (every counter length rebuilds the hierarchy).
func TestRunCounterSweepBatch(t *testing.T) {
	args := append([]string{"-sweep", "counter", "-batch", "-values", "2,3"}, smallSpecArgs...)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "counter") || !strings.Contains(stdout.String(), "batch:") {
		t.Errorf("output:\n%s", stdout.String())
	}
}

// TestTraceCarriesEveryPointsIterations checks that every sweep point
// solves under the command's run handle: the -trace file holds multigrid
// iter events inside each point's span, point-at-a-time and -batch alike.
func TestTraceCarriesEveryPointsIterations(t *testing.T) {
	for _, mode := range []string{"point", "batch"} {
		path := filepath.Join(t.TempDir(), "trace.jsonl")
		args := append([]string{"-sweep", "counter", "-values", "2,3", "-trace", path}, smallSpecArgs...)
		if mode == "batch" {
			args = append(args, "-batch")
		}
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d, stderr:\n%s", mode, code, stderr.String())
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		iters := map[string]int{} // span name → multigrid iter events inside it
		open := ""
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var e struct{ Kind, Name string }
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Fatalf("%s: bad trace line %q: %v", mode, sc.Text(), err)
			}
			switch {
			case e.Kind == "span_start" && strings.HasPrefix(e.Name, "sweep.counter."):
				open = e.Name
				iters[open] += 0
			case e.Kind == "span_end" && e.Name == open:
				open = ""
			case e.Kind == "iter" && e.Name == "multigrid" && open != "":
				iters[open]++
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		for _, point := range []string{"sweep.counter.2", "sweep.counter.3"} {
			if n, ok := iters[point]; !ok || n == 0 {
				t.Errorf("%s: point %s traced %d multigrid iter events (span seen: %v)", mode, point, n, ok)
			}
		}
	}
}

func TestRunRejectsUnknownSweep(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-sweep", "bogus"}, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "unknown sweep") {
		t.Errorf("stderr: %s", stderr.String())
	}
}

// TestStrictExitCode covers both sides of the -strict contract: an
// unconverged solve is fatal only when strict is requested.
func TestStrictExitCode(t *testing.T) {
	cases := []struct {
		strict      bool
		unconverged int
		want        int
	}{
		{false, 0, 0},
		{false, 3, 0},
		{true, 0, 0},
		{true, 1, exitUnconverged},
	}
	for _, c := range cases {
		if got := strictExitCode(c.strict, c.unconverged); got != c.want {
			t.Errorf("strictExitCode(%v, %d) = %d, want %d", c.strict, c.unconverged, got, c.want)
		}
	}
}

func TestWarnUnconverged(t *testing.T) {
	var buf bytes.Buffer
	if warnUnconverged(&buf, true, "counter 4", 1e-13) {
		t.Error("converged solve reported as warned")
	}
	if buf.Len() != 0 {
		t.Errorf("converged solve wrote: %s", buf.String())
	}
	if !warnUnconverged(&buf, false, "counter 4", 1e-3) {
		t.Error("unconverged solve not reported")
	}
	if !strings.Contains(buf.String(), "did not converge at counter 4") {
		t.Errorf("warning text: %s", buf.String())
	}
}
