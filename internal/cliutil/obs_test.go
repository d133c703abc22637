package cliutil

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdrstoch/internal/obs"
)

func parseObs(t *testing.T, args ...string) *ObsFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	of := BindObs(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return of
}

func TestObsDefaultsAreDisabled(t *testing.T) {
	of := parseObs(t)
	o, err := of.Setup()
	if err != nil {
		t.Fatal(err)
	}
	if o.Tracer != nil {
		t.Error("tracer enabled without -trace")
	}
	if o.Registry == nil {
		t.Error("registry missing")
	}
	var buf bytes.Buffer
	if err := o.Close(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("metrics printed without -metrics: %q", buf.String())
	}
}

func TestObsTraceSinkWritesJSONLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	of := parseObs(t, "-trace", path, "-metrics")
	o, err := of.Setup()
	if err != nil {
		t.Fatal(err)
	}
	// A solver under the command's run reports a span and an iteration.
	p := obs.Begin(o.Context(), "power", obs.Sweeps, "", nil)
	if err := p.Iter(1, 0.5); err != nil {
		t.Fatal(err)
	}
	p.End(obs.Work{})
	o.Registry.Counter("solver.iterations").Add(3)

	var buf bytes.Buffer
	if err := o.Close(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "solver.iterations") {
		t.Errorf("-metrics table missing counter:\n%s", buf.String())
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("trace has %d events, want 3", len(events))
	}
	if events[0].Kind != "span_start" || events[1].Kind != "iter" || events[2].Kind != "span_end" {
		t.Errorf("event kinds = %s/%s/%s", events[0].Kind, events[1].Kind, events[2].Kind)
	}
}

func TestObsProgressFlagEnablesTracer(t *testing.T) {
	o, err := parseObs(t, "-progress").Setup()
	if err != nil {
		t.Fatal(err)
	}
	if o.Tracer == nil {
		t.Fatal("-progress left the tracer nil")
	}
	var buf bytes.Buffer
	if err := o.Close(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestObsProgressComposesWithTraceSink(t *testing.T) {
	// -progress tees a stderr printer in front of the JSONL sink; the
	// trace file must still receive every event.
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	o, err := parseObs(t, "-trace", path, "-progress").Setup()
	if err != nil {
		t.Fatal(err)
	}
	o.Run.Emit(obs.Event{Kind: "iter", Name: "power", Iter: 1, Residual: 0.5})
	var buf bytes.Buffer
	if err := o.Close(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != "iter" {
		t.Fatalf("trace sink behind -progress recorded %v", events)
	}
}

func TestObsTraceSinkOpenFailure(t *testing.T) {
	of := parseObs(t, "-trace", filepath.Join(t.TempDir(), "missing", "trace.jsonl"))
	if _, err := of.Setup(); err == nil {
		t.Error("unwritable trace path accepted")
	}
}

func TestObsTraceSinkExportsDropGauge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	of := parseObs(t, "-trace", path)
	o, err := of.Setup()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := o.Registry.Snapshot().Gauges["obs.jsonl_dropped"]
	if !ok {
		t.Fatal("obs.jsonl_dropped gauge not registered with a JSONL tracer")
	}
	if got != 0 {
		t.Errorf("healthy sink dropped = %g", got)
	}
	var buf bytes.Buffer
	if err := o.Close(&buf); err != nil {
		t.Fatal(err)
	}

	// No tracer, no gauge.
	o2, err := parseObs(t).Setup()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := o2.Registry.Snapshot().Gauges["obs.jsonl_dropped"]; ok {
		t.Error("drop gauge registered without a tracer")
	}
}
