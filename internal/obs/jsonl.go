package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// JSONL writes one JSON value per line to an io.Writer: trace events as
// a Tracer (the -trace sink) and, through Encode, any other record (the
// service's -cost-log of SolveReports). Writes are serialized by a
// mutex, so one sink can be shared by concurrent solver workers.
// Encoding errors are sticky: the first one is retained and reported by
// Err, the value that hit it and every subsequent one are dropped, and
// Dropped counts the losses so callers can tell a clean log from a
// truncated one. A nil *JSONL drops everything silently.
type JSONL struct {
	mu      sync.Mutex
	enc     *json.Encoder
	err     error
	dropped int64
}

// NewJSONL returns a JSON-lines sink writing to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w)}
}

// Emit encodes the event as one JSON line.
func (j *JSONL) Emit(e Event) { j.Encode(e) }

// Encode writes v as one JSON line. After the first write error the sink
// stops writing; the error stays visible through Err and the losses
// through Dropped.
func (j *JSONL) Encode(v any) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		j.dropped++
		return
	}
	if err := j.enc.Encode(v); err != nil {
		j.err = err
		j.dropped++
	}
}

// Err reports the first encoding error, if any. It is sticky: once set
// it never changes, so a single check after a run surfaces the earliest
// failure rather than the most recent one.
func (j *JSONL) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Dropped reports how many values were lost to the sticky error (the
// failing one included).
func (j *JSONL) Dropped() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// ReadEvents decodes a JSON-lines event stream, skipping blank lines.
func ReadEvents(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, sc.Err()
}
