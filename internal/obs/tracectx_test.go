package obs

import (
	"context"
	"testing"
)

func TestNewTraceID(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace ID %q has length %d, want 16", id, len(id))
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

func TestContextTraceRoundTrip(t *testing.T) {
	ctx := ContextWithTrace(context.Background(), "trace1", "span1")
	trace, span := TraceFromContext(ctx)
	if trace != "trace1" || span != "span1" {
		t.Errorf("round trip = %q/%q", trace, span)
	}
	if trace, span := TraceFromContext(context.Background()); trace != "" || span != "" {
		t.Errorf("bare context = %q/%q", trace, span)
	}
	if trace, _ := TraceFromContext(nil); trace != "" {
		t.Errorf("nil context = %q", trace)
	}
	// A nil parent context is tolerated.
	if trace, _ := TraceFromContext(ContextWithTrace(nil, "t", "s")); trace != "t" {
		t.Errorf("nil-base context = %q", trace)
	}
}

// TestWithTraceStampsEvents checks that a run stamps its own trace
// identity onto every event it emits, spans included, overwriting
// whatever identity the event carried, and that a nil run or a run
// without a sink drops events without complaint.
func TestWithTraceStampsEvents(t *testing.T) {
	col := NewCollector(nil)
	run := &Run{Trace: "trace1", Parent: "span1", Sink: col}
	run.Emit(Event{Kind: "iter", Iter: 1})
	run.Emit(Event{Kind: "iter", Iter: 2, Trace: "other", Parent: "otherspan"})
	run.Span("solve")()
	got := col.Events()
	if len(got) != 4 {
		t.Fatalf("%d events, want 4", len(got))
	}
	for _, e := range got {
		if e.Trace != "trace1" || e.Parent != "span1" {
			t.Errorf("unstamped event %+v", e)
		}
	}
	if got[2].Kind != "span_start" || got[3].Kind != "span_end" || got[3].Name != "solve" {
		t.Errorf("span events = %+v", got[2:])
	}
	var none *Run
	none.Emit(Event{Kind: "iter"})
	none.Span("x")()
	(&Run{Trace: "t"}).Emit(Event{Kind: "iter"})
}

// TestStampFromContext checks that a run built under a traced context
// inherits its trace and root span and stamps them onto its events, that
// an explicit identity wins over the context's, and that a bare or nil
// context carries no run.
func TestStampFromContext(t *testing.T) {
	col := NewCollector(nil)
	ctx := WithRun(ContextWithTrace(context.Background(), "trace9", "span9"), &Run{Sink: col})
	run := RunFrom(ctx)
	if run.Trace != "trace9" || run.Parent != "span9" {
		t.Fatalf("run identity = %q/%q", run.Trace, run.Parent)
	}
	if trace, span := TraceFromContext(ctx); trace != "trace9" || span != "span9" {
		t.Errorf("context identity = %q/%q", trace, span)
	}
	run.Emit(Event{Kind: "iter"})
	if got := col.Events(); len(got) != 1 || got[0].Trace != "trace9" || got[0].Parent != "span9" {
		t.Errorf("events = %+v", got)
	}
	own := WithRun(ctx, &Run{Trace: "mine"})
	if trace, span := TraceFromContext(own); trace != "mine" || span != "" {
		t.Errorf("explicit identity = %q/%q", trace, span)
	}
	// A trace-less context leaves the run unstamped.
	if r := RunFrom(WithRun(nil, &Run{Sink: col})); r.Trace != "" || r.Parent != "" {
		t.Errorf("identity from a bare context = %q/%q", r.Trace, r.Parent)
	}
	if RunFrom(nil) != nil || RunFrom(context.Background()) != nil {
		t.Error("bare context carries a run")
	}
}

// TestStampFromContextDisabledZeroAlloc extends the zero-cost-when-
// disabled contract to a traced context whose run has no sink, meter or
// fault hook: looking the run up, stamping and a whole probed solve must
// not allocate.
func TestStampFromContextDisabledZeroAlloc(t *testing.T) {
	ctx := ContextWithTrace(context.Background(), "t", "s")
	if n := testing.AllocsPerRun(1000, func() {
		run := RunFrom(ctx)
		run.Emit(Event{Kind: "iter", Iter: 1})
		run.Span("solve")()
		p := Begin(ctx, "multigrid", Cycles, "multigrid.cycle", nil)
		_ = p.Iter(7, 1e-9)
		_ = p.Progress("bitsim", 0, 100, 1000)
		p.End(Work{})
	}); n != 0 {
		t.Errorf("identity-only run allocates %.1f/op", n)
	}
}
