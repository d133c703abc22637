package obs_test

import (
	"bytes"
	"errors"
	"testing"

	"cdrstoch/internal/obs"
	"cdrstoch/internal/obs/cost"
)

// failAfterWriter errors on every write past the first n bytes.
type failAfterWriter struct {
	n       int
	written int
	err     error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, w.err
	}
	w.written += len(p)
	return len(p), nil
}

// TestJSONLStickyError pins the failure contract of the one JSON-lines
// sink, for both payloads it carries (trace events and cost reports): the
// first write error is retained by Err, later values are dropped (not
// written, not panicking), and Dropped counts every loss including the
// failing one. A nil sink drops silently.
func TestJSONLStickyError(t *testing.T) {
	wantErr := errors.New("disk full")
	sink := obs.NewJSONL(&failAfterWriter{n: 1, err: wantErr}) // first value already fails
	sink.Emit(obs.Event{Kind: "iter", Name: "power", Iter: 1, Residual: 0.5})
	sink.Encode(cost.SolveReport{Endpoint: "analyze"})
	sink.Emit(obs.Event{Kind: "iter", Name: "power", Iter: 2, Residual: 0.25})
	if err := sink.Err(); !errors.Is(err, wantErr) {
		t.Errorf("Err() = %v, want %v", err, wantErr)
	}
	if d := sink.Dropped(); d != 3 {
		t.Errorf("Dropped() = %d, want 3", d)
	}
	// A healthy sink writes both payloads, one line each.
	var buf bytes.Buffer
	ok := obs.NewJSONL(&buf)
	ok.Emit(obs.Event{Kind: "iter", Name: "power", Iter: 1, Residual: 0.5})
	ok.Encode(cost.SolveReport{Endpoint: "analyze", Cycles: 3})
	if ok.Err() != nil || ok.Dropped() != 0 {
		t.Errorf("healthy sink: err=%v dropped=%d", ok.Err(), ok.Dropped())
	}
	if got := bytes.Count(buf.Bytes(), []byte("\n")); got != 2 || !bytes.Contains(buf.Bytes(), []byte(`"cycles":3`)) {
		t.Errorf("healthy sink wrote %d lines:\n%s", got, buf.Bytes())
	}
	var none *obs.JSONL
	none.Encode(cost.SolveReport{})
	if none.Err() != nil || none.Dropped() != 0 {
		t.Error("nil sink reports state")
	}
}
