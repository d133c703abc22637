package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"cdrstoch/internal/obs"
)

// sseSubBuffer is the per-stream event buffer, sized to absorb a burst
// of roughly one whole solve's iteration events while the client is
// catching up. A client that reads slower than the solver emits loses
// events (counted, never blocking the solver) rather than growing
// memory; the terminal "done" event is delivered out of band, so a
// lossy stream still ends correctly.
const sseSubBuffer = 1024

// handleJobEvents streams a job's live solve events as Server-Sent
// Events: one "start" per tracked solve, "span_start" and "span_end"
// around its stages (serve.build, serve.solve, the solver's own span,
// whose multigrid span_end carries the per-level work), "iter" for raw
// solver iterations, "progress" when a solve finishes (one per sweep
// point on batched sweeps), "watchdog" for stall/divergence verdicts,
// and a terminal "done" carrying the final JobView, written as soon as
// the job ends. Heartbeat comments keep idle connections alive; a
// disconnected client tears the stream down at the next event or
// heartbeat.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, ok := s.jobView(id)
	ended, retained := s.jobs.Done(id)
	if !ok || !retained {
		s.writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown or evicted job"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeJSON(w, http.StatusNotImplemented, errorBody{Error: "streaming unsupported by this connection"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	s.reg.Counter("serve.sse_streams").Inc()

	// Subscribe before the terminal check: events arriving between the
	// two would otherwise fall in a gap. For already-terminal jobs the
	// subscription is released immediately.
	sub := s.progress.Subscribe(view.TraceID, sseSubBuffer)
	defer sub.Close()

	writeSSE(w, "job", view)
	fl.Flush()
	if terminalStatus(view.Status) {
		writeSSE(w, "done", view)
		fl.Flush()
		return
	}

	hb := time.NewTicker(s.cfg.EventsHeartbeat)
	defer hb.Stop()
	for {
		select {
		case <-r.Context().Done():
			s.reg.Counter("serve.sse_disconnects").Inc()
			return
		case e := <-sub.C():
			writeSSE(w, sseEventName(e), e)
			fl.Flush()
		case <-ended:
			// Job completion is observed through the job table, not the
			// event stream, so a lossy (slow-reader) stream still
			// terminates. The final solve_end (and any trailing watchdog
			// events) may still sit buffered in the subscription: drain
			// them so the "done" frame is genuinely last.
			for drained := false; !drained; {
				select {
				case e := <-sub.C():
					writeSSE(w, sseEventName(e), e)
				default:
					drained = true
				}
			}
			if view, ok = s.jobView(id); ok {
				writeSSE(w, "done", view)
			}
			fl.Flush()
			return
		case <-hb.C:
			fmt.Fprint(w, ": hb\n\n")
			fl.Flush()
		}
	}
}

// terminalStatus reports whether a job status is final.
func terminalStatus(status string) bool {
	return status == StatusDone || status == StatusFailed || status == StatusCanceled
}

// sseEventName names an SSE frame by its event's kind, except the
// tracker's lifecycle events: solve_start is framed "start" and
// solve_end "progress".
func sseEventName(e obs.Event) string {
	switch e.Kind {
	case "solve_start":
		return "start"
	case "solve_end":
		return "progress"
	}
	return e.Kind
}

// writeSSE emits one SSE frame. Encoding failures are unrepresentable
// for the event/view types streamed here, so they degrade to a skipped
// frame rather than a torn one.
func writeSSE(w http.ResponseWriter, event string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
}
