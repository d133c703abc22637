package obs

import "sync"

// DefaultFlightSize is the ring capacity used when NewFlightRecorder is
// given a non-positive size.
const DefaultFlightSize = 4096

// FlightRecorder is a fixed-size concurrent ring buffer of the most
// recent events — the always-on "black box" of a running service. Emit
// overwrites the oldest slot once the ring is full and never allocates,
// so the recorder can sit in every tracer chain at near-zero cost; the
// ring is only read out when a solve fails (postmortem dumps into logs
// and error responses) or on demand (GET /debug/flight).
//
// A nil *FlightRecorder is a valid no-op sink, matching the package's
// nil-tolerance contract.
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []Event
	total uint64 // events ever emitted
}

// NewFlightRecorder returns a recorder retaining the last size events.
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightSize
	}
	return &FlightRecorder{buf: make([]Event, size)}
}

// Emit records the event, overwriting the oldest one when the ring is
// full. The hot path is a mutex acquire and a struct copy: no
// allocation, no time syscall.
func (f *FlightRecorder) Emit(e Event) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.buf[f.total%uint64(len(f.buf))] = e
	f.total++
	f.mu.Unlock()
}

// Dropped reports how many events have been overwritten since creation.
func (f *FlightRecorder) Dropped() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.total <= uint64(len(f.buf)) {
		return 0
	}
	return f.total - uint64(len(f.buf))
}

// Snapshot copies the retained events, oldest first.
func (f *FlightRecorder) Snapshot() []Event {
	return f.Tail(-1)
}

// Tail returns up to n of the most recent events, oldest first. n < 0
// returns everything retained.
func (f *FlightRecorder) Tail(n int) []Event {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	size := uint64(len(f.buf))
	held := f.total
	if held > size {
		held = size
	}
	if n >= 0 && uint64(n) < held {
		held = uint64(n)
	}
	out := make([]Event, held)
	start := f.total - held
	for i := uint64(0); i < held; i++ {
		out[i] = f.buf[(start+i)%size]
	}
	return out
}

// TailFor returns up to n of the most recent events stamped with the
// given trace ID, oldest first — the per-request postmortem view. n < 0
// removes the cap. An empty traceID matches nothing.
func (f *FlightRecorder) TailFor(traceID string, n int) []Event {
	if traceID == "" {
		return nil
	}
	return f.TailWhere(n, func(e *Event) bool { return e.Trace == traceID })
}

// TailWhere returns up to n of the most recent events keep accepts,
// oldest first. n < 0 removes the cap.
func (f *FlightRecorder) TailWhere(n int, keep func(*Event) bool) []Event {
	var out []Event
	for _, e := range f.Tail(-1) {
		if keep(&e) {
			out = append(out, e)
		}
	}
	if n >= 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}
