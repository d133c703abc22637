package progress

import (
	"testing"
	"time"

	"cdrstoch/internal/obs"
	"cdrstoch/internal/obs/cost"
)

// traces lists the Trace fields of reports, in order.
func traces(reps []cost.SolveReport) string {
	s := ""
	for _, r := range reps {
		s += r.Trace
	}
	return s
}

// TestFinishMovesRowToFinished pins the row's life in the one table: Begin
// opens a live row, Finish closes it with its report, which then sits in
// the finished tail and no longer in the in-flight view. A nil handle
// files the report alone, as a solve that failed before it got a slot
// does; it publishes no solve_end and counts no finished solve.
func TestFinishMovesRowToFinished(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(Config{Registry: reg})
	sub := tr.Subscribe("tF", 8)
	defer sub.Close()
	h := tr.Begin(tracedCtx("tF"), "analyze", "k")
	h.Emit(obs.Event{Kind: "iter", Name: "multigrid", Iter: 3, Residual: 1e-9})
	if len(tr.Snapshot()) != 1 || len(tr.Finished(cost.Filter{})) != 0 {
		t.Fatalf("after Begin: %d live, %d finished rows", len(tr.Snapshot()), len(tr.Finished(cost.Filter{})))
	}

	tr.Finish(h, cost.SolveReport{Trace: "tF", Endpoint: "analyze", Cycles: 3})
	if got := tr.Snapshot(); len(got) != 0 {
		t.Fatalf("finished solve still live: %+v", got)
	}
	if _, ok := tr.LatestByTrace("tF"); ok {
		t.Fatal("finished solve still found among the live rows")
	}
	if got := tr.Finished(cost.Filter{}); len(got) != 1 || got[0].Trace != "tF" || got[0].Cycles != 3 {
		t.Fatalf("finished rows = %+v", got)
	}
	var end obs.Event
	for end.Kind != "solve_end" {
		select {
		case end = <-sub.C():
		case <-time.After(time.Second):
			t.Fatal("no solve_end published")
		}
	}
	if end.Iter != 3 || end.Residual != 1e-9 || end.Reason != "" {
		t.Fatalf("solve_end = %+v", end)
	}

	tr.Finish(nil, cost.SolveReport{Trace: "tF", Err: "queued for a solve slot: context canceled"})
	if got := tr.Finished(cost.Filter{Trace: "tF"}); len(got) != 2 || got[0].Err == "" || got[1].Cycles != 3 {
		t.Fatalf("finished rows after a slotless solve = %+v", got)
	}
	if got := reg.Counter("progress.solves_finished").Value(); got != 1 {
		t.Fatalf("progress.solves_finished = %d, want 1", got)
	}
	select {
	case e := <-sub.C():
		t.Fatalf("nil-handle Finish published %+v", e)
	default:
	}
	var nilH *Handle
	nilH.Emit(obs.Event{Kind: "iter", Iter: 1, Residual: 0.5})
	if len(tr.Snapshot()) != 0 || tr.Dropped() != 0 {
		t.Fatalf("nil handle touched the table: %d live, %d dropped", len(tr.Snapshot()), tr.Dropped())
	}
}

// TestFinishedNilTolerant pins the finished tail of a nil tracker: Finish
// files nothing, with or without a handle, Finished returns nil for any
// filter and Dropped reads zero.
func TestFinishedNilTolerant(t *testing.T) {
	var tr *Tracker
	tr.Finish(nil, cost.SolveReport{Trace: "x"})
	tr.Finish(tr.Begin(tracedCtx("x"), "analyze", "k"), cost.SolveReport{Trace: "x"})
	if got := tr.Finished(cost.Filter{}); got != nil {
		t.Errorf("nil tracker Finished = %v", got)
	}
	if got := tr.Finished(cost.Filter{Trace: "x", Limit: 1}); got != nil {
		t.Errorf("nil tracker Finished by trace = %v", got)
	}
	if got := tr.Dropped(); got != 0 {
		t.Errorf("nil tracker Dropped = %d", got)
	}
}

// TestFinishedFilterAndEviction pins the finished tail: newest first,
// every cost.Filter field selects, Limit caps, and a full tail evicts its
// oldest row and counts it in Dropped.
func TestFinishedFilterAndEviction(t *testing.T) {
	tr := New(Config{Registry: obs.NewRegistry(), Keep: 4})
	for i := 0; i < 6; i++ {
		endpoint := "analyze"
		if i == 4 {
			endpoint = "slip"
		}
		tr.Finish(nil, cost.SolveReport{
			Trace: string(rune('a' + i)), SpecKey: []string{"even", "odd"}[i%2], Endpoint: endpoint,
			WallNS: int64(i+1) * int64(time.Millisecond),
		})
	}
	if got := tr.Dropped(); got != 2 {
		t.Errorf("Dropped = %d, want 2", got)
	}
	for _, c := range []struct {
		name string
		f    cost.Filter
		want string
	}{
		{"all, newest first", cost.Filter{}, "fedc"},
		{"evicted trace", cost.Filter{Trace: "a"}, ""},
		{"trace", cost.Filter{Trace: "e"}, "e"},
		{"spec key", cost.Filter{SpecKey: "odd"}, "fd"},
		{"endpoint", cost.Filter{Endpoint: "slip"}, "e"},
		{"min wall", cost.Filter{MinWall: 5 * time.Millisecond}, "fe"},
		{"limit", cost.Filter{Limit: 3}, "fed"},
		{"min wall and limit", cost.Filter{MinWall: 4 * time.Millisecond, Limit: 1}, "f"},
		{"endpoint and spec key", cost.Filter{Endpoint: "analyze", SpecKey: "even"}, "c"},
	} {
		if got := traces(tr.Finished(c.f)); got != c.want {
			t.Errorf("%s: rows %q, want %q", c.name, got, c.want)
		}
	}
}
