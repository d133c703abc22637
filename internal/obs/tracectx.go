package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
)

// fallbackSeq drives trace-ID generation when crypto/rand is unavailable
// (it never is on the supported platforms, but the fallback keeps IDs
// unique within the process regardless).
var fallbackSeq atomic.Uint64

// NewTraceID returns a 16-hex-character random identifier suitable for
// request and span IDs.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		binary.BigEndian.PutUint64(b[:], fallbackSeq.Add(1)|1<<63)
	}
	return hex.EncodeToString(b[:])
}

// tee fans every event out to multiple sinks in order.
type tee []Tracer

func (t tee) Emit(e Event) {
	for _, x := range t {
		x.Emit(e)
	}
}

// Tee combines tracers into one sink, dropping nil members. Zero live
// members yield nil (the disabled tracer); one yields that member
// directly, avoiding the fan-out indirection.
func Tee(tracers ...Tracer) Tracer {
	var live []Tracer
	for _, t := range tracers {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return tee(live)
}
