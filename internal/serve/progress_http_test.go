package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"cdrstoch/internal/core"
	"cdrstoch/internal/obs"
	"cdrstoch/internal/obs/progress"
)

// sseFrame is one parsed Server-Sent Event.
type sseFrame struct {
	Event string
	Data  []byte
}

// readSSE consumes a text/event-stream body until the predicate says
// stop, the stream ends, or the deadline passes, returning the frames
// and the number of comment (heartbeat) lines seen.
func readSSE(t *testing.T, resp *http.Response, deadline time.Duration, stop func(sseFrame) bool) ([]sseFrame, int) {
	t.Helper()
	timer := time.AfterFunc(deadline, func() { resp.Body.Close() })
	defer timer.Stop()
	var frames []sseFrame
	comments := 0
	cur := sseFrame{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, ":"):
			comments++
		case strings.HasPrefix(line, "event: "):
			cur.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.Event == "" && cur.Data == nil {
				continue
			}
			frames = append(frames, cur)
			if stop(cur) {
				return frames, comments
			}
			cur = sseFrame{}
		}
	}
	return frames, comments
}

// TestJobEventsSSE proves the streaming contract on a batched sweep: the
// stream yields one "start" and one "progress" event per solved point,
// heartbeat comments while the job sits queued, and a terminal "done"
// frame carrying the finished JobView with its queue timestamps.
func TestJobEventsSSE(t *testing.T) {
	// The dequeue delay holds the job queued for 150ms so the SSE client
	// subscribes before the first point solves (and heartbeats fire while
	// nothing else is flowing); the cycle delay keeps each point slow
	// enough that iter events interleave with reads.
	_, url, _ := newChaosServer(t, "jobs.dequeue:delay:ms=150:n=1,multigrid.cycle:delay:ms=1",
		ServerConfig{EventsHeartbeat: 20 * time.Millisecond})

	req := sweepRequest{Spec: testSpec(t), Param: "counter", Values: []float64{1, 2, 4}, Async: true, Batch: true}
	resp, body := postJSON(t, url+"/v1/sweep", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}

	stream, err := http.Get(url + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	frames, comments := readSSE(t, stream, 30*time.Second, func(f sseFrame) bool { return f.Event == "done" })
	count := map[string]int{}
	for _, f := range frames {
		count[f.Event]++
	}
	if count["start"] != 3 || count["progress"] != 3 {
		t.Fatalf("start/progress counts = %d/%d, want 3/3 (events: %v)", count["start"], count["progress"], count)
	}
	if count["done"] != 1 {
		t.Fatalf("done count = %d, want 1", count["done"])
	}
	if count["iter"] == 0 {
		t.Fatalf("no iter events streamed (events: %v)", count)
	}
	if comments == 0 {
		t.Fatal("no heartbeat comments on the stream")
	}

	// Every progress frame is a parseable solver event stamped with the
	// job's trace; the done frame is the terminal JobView with both queue
	// timestamps.
	for _, f := range frames {
		if f.Event != "progress" {
			continue
		}
		var e obs.Event
		if err := json.Unmarshal(f.Data, &e); err != nil {
			t.Fatalf("unparseable progress frame %s: %v", f.Data, err)
		}
		if e.Kind != "solve_end" || e.Trace != view.TraceID {
			t.Fatalf("progress frame kind=%q trace=%q, want solve_end under %q", e.Kind, e.Trace, view.TraceID)
		}
	}
	var done JobView
	if err := json.Unmarshal(frames[len(frames)-1].Data, &done); err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone {
		t.Fatalf("terminal status = %q, want %q", done.Status, StatusDone)
	}
	if done.QueuedAt == "" || done.StartedAt == "" {
		t.Fatalf("terminal view missing timestamps: queued_at=%q started_at=%q", done.QueuedAt, done.StartedAt)
	}
}

// TestJobEventsDoneOnJobEnd pins that the terminal "done" frame follows
// the job's end at once, at the default heartbeat: the stream learns that
// the job ended from the job itself, not at its next keep-alive tick.
func TestJobEventsDoneOnJobEnd(t *testing.T) {
	// The dequeue delay holds the job queued until the client subscribes.
	_, url, _ := newChaosServer(t, "jobs.dequeue:delay:ms=150:n=1", ServerConfig{})
	id := submitAsync(t, url, solveRequest{Spec: testSpec(t)})
	stream, err := http.Get(url + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()

	// The solve's solve_end ("progress") frame is the last event before
	// the job turns terminal.
	var ended time.Time
	frames, _ := readSSE(t, stream, 30*time.Second, func(f sseFrame) bool {
		if f.Event == "progress" {
			ended = time.Now()
		}
		return f.Event == "done"
	})
	if len(frames) == 0 || frames[len(frames)-1].Event != "done" {
		t.Fatalf("stream ended without a done frame: %d frames", len(frames))
	}
	if ended.IsZero() {
		t.Fatal("no progress frame before done: the job ended before the stream subscribed")
	}
	if lag := time.Since(ended); lag > time.Second {
		t.Errorf("done arrived %v after the solve ended, want within 1s", lag)
	}
}

// TestJobEventsFramesNamedByKind pins the SSE frame names: each frame is
// named by its event's kind, so an "iter" frame always carries an iter
// event and the solve's spans arrive as "span_start" / "span_end" frames,
// the multigrid span_end carrying the solve's per-level work.
func TestJobEventsFramesNamedByKind(t *testing.T) {
	_, url, _ := newChaosServer(t, "jobs.dequeue:delay:ms=150:n=1", ServerConfig{EventsHeartbeat: 20 * time.Millisecond})
	resp, body := postJSON(t, url+"/v1/analyze", solveRequest{Spec: testSpec(t), Async: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	stream, err := http.Get(url + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	frames, _ := readSSE(t, stream, 30*time.Second, func(f sseFrame) bool { return f.Event == "done" })

	count := map[string]int{}
	var levels []obs.LevelStat
	for _, f := range frames {
		count[f.Event]++
		if f.Event == "job" || f.Event == "done" {
			continue
		}
		var e obs.Event
		if err := json.Unmarshal(f.Data, &e); err != nil {
			t.Fatalf("unparseable %s frame %s: %v", f.Event, f.Data, err)
		}
		want := map[string]string{"solve_start": "start", "solve_end": "progress"}[e.Kind]
		if want == "" {
			want = e.Kind
		}
		if f.Event != want {
			t.Fatalf("%s frame carries a %s event: %s", f.Event, e.Kind, f.Data)
		}
		if e.Kind == "span_end" && e.Name == "multigrid" {
			levels = e.Levels
		}
	}
	if count["iter"] == 0 || count["span_start"] == 0 || count["span_end"] != count["span_start"] || count["done"] != 1 {
		t.Fatalf("frame counts = %v", count)
	}
	if len(levels) == 0 || levels[0].Visits != count["iter"] {
		t.Fatalf("multigrid span_end levels %+v for %d iter frames", levels, count["iter"])
	}
}

// TestJobTraceHoldsWholeSolves pins what a job's trace and the flight
// recorder keep of explicit solves: with one event per cycle and the
// per-level work on the solve's closing span, two DefaultSpec-family jobs
// fit the default flight ring with nothing dropped, and each job's trace
// runs from its build span through every cycle to the multigrid span_end.
func TestJobTraceHoldsWholeSolves(t *testing.T) {
	_, ts, _ := newTestServer(t, ServerConfig{})
	other := core.DefaultSpec()
	other.TransitionDensity = 0.4
	var ids []string
	for _, spec := range []core.Spec{core.DefaultSpec(), other} {
		ids = append(ids, submitAsync(t, ts.URL, solveRequest{Spec: spec, Backend: backendExplicit}))
	}
	for _, id := range ids {
		v := pollJob(t, ts.URL, id)
		if v.Status != StatusDone {
			t.Fatalf("job %s ended %s: %s", id, v.Status, v.Error)
		}
		var b AnalyzeBody
		if err := json.Unmarshal(v.Result, &b); err != nil {
			t.Fatal(err)
		}
		_, body := getJSON(t, ts.URL+"/v1/jobs/"+id+"/trace")
		var jt jobTraceBody
		if err := json.Unmarshal(body, &jt); err != nil {
			t.Fatal(err)
		}
		if len(jt.Events) == 0 || jt.Events[0].Kind != "span_start" || jt.Events[0].Name != "serve.build" {
			t.Fatalf("job %s trace does not start with its serve.build span: %d events", id, len(jt.Events))
		}
		iters, visits := 0, -1
		for _, e := range jt.Events {
			switch {
			case e.Kind == "iter":
				iters++
			case e.Kind == "span_end" && e.Name == "multigrid" && len(e.Levels) > 0:
				visits = e.Levels[0].Visits
			}
		}
		if iters != b.Cycles || visits != b.Cycles {
			t.Errorf("job %s: %d iter events, multigrid span_end level-0 visits %d, body cycles %d", id, iters, visits, b.Cycles)
		}
	}
	_, body := getJSON(t, ts.URL+"/debug/flight")
	var fb flightBody
	if err := json.Unmarshal(body, &fb); err != nil {
		t.Fatal(err)
	}
	if fb.Dropped != 0 {
		t.Errorf("flight recorder dropped %d events of two solves", fb.Dropped)
	}
}

// TestJobEventsSSEDisconnect pins the teardown contract under -race: a
// client that walks away mid-stream releases its handler goroutine and
// subscription instead of leaking them against the running solve.
func TestJobEventsSSEDisconnect(t *testing.T) {
	s, url, reg := newChaosServer(t, "multigrid.cycle:delay:ms=20",
		ServerConfig{EventsHeartbeat: 20 * time.Millisecond})

	spec := testSpec(t)
	spec.TransitionDensity = 0.45 // fresh spec: never cached by other tests
	resp, body := postJSON(t, url+"/v1/analyze", solveRequest{Spec: spec, Async: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/jobs/"+view.ID+"/events", nil)
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one frame so the handler is demonstrably mid-stream, then
	// hang up.
	readSSE(t, stream, 10*time.Second, func(sseFrame) bool { return true })
	cancel()
	stream.Body.Close()

	// The handler notices the disconnect at its next event or heartbeat
	// and exits; subscriber count drains to zero and the goroutine count
	// settles back (slack for the still-running solve and test plumbing).
	deadline := time.Now().Add(5 * time.Second)
	for {
		subs := reg.Counter("serve.sse_disconnects").Value()
		if subs >= 1 && runtime.NumGoroutine() <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("handler did not tear down: disconnects=%d goroutines=%d (baseline %d)",
				subs, runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
	_ = s
}

// TestWatchdogStallInjection is the chaos proof of the watchdog: a
// solver held by an injected delay at the multigrid.cycle seam is
// classified stalled within the configured window, the verdict event
// carries the job's trace ID, and the watchdog only testifies — the
// solve runs on and the job ends done once the delay ends.
func TestWatchdogStallInjection(t *testing.T) {
	s, url, reg := newChaosServer(t, "multigrid.cycle:delay:d=600ms:after=3:n=1",
		ServerConfig{
			StallWindow:      120 * time.Millisecond,
			WatchdogInterval: 20 * time.Millisecond,
		})

	spec := testSpec(t)
	spec.CounterLen = 3 // fresh spec: the solve must actually run
	resp, body := postJSON(t, url+"/v1/analyze", solveRequest{Spec: spec, Async: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}

	// The stall verdict must reach /debug/progress's watchdog tail, which
	// reads the flight recorder, stamped with the job's trace, within a
	// couple of windows.
	var verdict obs.Event
	var pb progressBody
	deadline := time.Now().Add(5 * time.Second)
	for verdict.Kind == "" {
		resp, err := http.Get(url + "/debug/progress")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&pb)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range pb.Watchdog {
			if e.Kind == "watchdog" && e.Name == progress.StateStalled && e.Trace == view.TraceID {
				verdict = e
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no stalled verdict for trace %s in the watchdog tail: %+v", view.TraceID, pb.Watchdog)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if verdict.Reason == "" {
		t.Fatalf("stalled verdict carries no reason: %+v", verdict)
	}

	// The verdict stops nothing: once the delay ends the solve finishes
	// and the job ends done.
	deadline = time.Now().Add(10 * time.Second)
	for {
		v, ok := s.jobs.Get(view.ID)
		if !ok {
			t.Fatalf("job %s evicted while awaited", view.ID)
		}
		if terminalStatus(v.Status) {
			if v.Status != StatusDone {
				t.Fatalf("stalled job = %+v, want done", v)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after the delay ended", v.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if got := reg.Counter("progress.solves_stalled_total").Value(); got < 1 {
		t.Errorf("progress.solves_stalled_total = %d, want >= 1", got)
	}
}

// TestDebugProgressLiveETA proves /debug/progress shows a solve
// in-flight with a finite ETA while it runs, in both the JSON and the
// Accept-negotiated table form, and that the running job's poll view
// carries the same live progress.
func TestDebugProgressLiveETA(t *testing.T) {
	s, url, _ := newChaosServer(t, "multigrid.cycle:delay:ms=25", ServerConfig{})

	spec := testSpec(t)
	spec.CounterLen = 1 // fresh spec for this test
	resp, body := postJSON(t, url+"/v1/analyze", solveRequest{Spec: spec, Async: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}

	type progressResp struct {
		Count  int                      `json:"count"`
		Solves []progress.SolveProgress `json:"solves"`
	}
	var live progress.SolveProgress
	deadline := time.Now().Add(10 * time.Second)
	for live.EtaSeconds == nil {
		r, b := getJSON(t, url+"/debug/progress")
		if r.StatusCode != http.StatusOK {
			t.Fatalf("/debug/progress: %d %s", r.StatusCode, b)
		}
		var pr progressResp
		if err := json.Unmarshal(b, &pr); err != nil {
			t.Fatalf("unparseable /debug/progress body %s: %v", b, err)
		}
		for _, sp := range pr.Solves {
			if sp.Trace == view.TraceID && sp.EtaSeconds != nil {
				live = sp
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no in-flight solve with finite ETA for trace %s (last body: %s)", view.TraceID, b)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if live.State != progress.StateProgressing {
		t.Errorf("live state = %q, want %q", live.State, progress.StateProgressing)
	}
	if *live.EtaSeconds < 0 {
		t.Errorf("negative ETA %v", *live.EtaSeconds)
	}
	if live.Iter <= 0 || live.Residual <= 0 {
		t.Errorf("implausible live view: %+v", live)
	}

	// The running job's poll view carries the same live progress block.
	if r, b := getJSON(t, url+"/v1/jobs/"+view.ID); r.StatusCode == http.StatusOK {
		var jv JobView
		if err := json.Unmarshal(b, &jv); err != nil {
			t.Fatal(err)
		}
		if jv.Status == StatusRunning && jv.Progress == nil {
			t.Errorf("running job view has no progress block: %s", b)
		}
	}

	// Accept: text/plain renders the human table.
	req, _ := http.NewRequest(http.MethodGet, url+"/debug/progress", nil)
	req.Header.Set("Accept", "text/plain")
	tr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	table, err := io.ReadAll(tr.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(table), "solve(s) in flight") {
		t.Fatalf("table form missing summary line: %q", table)
	}

	// Drain: don't leave the slow solve running into other tests.
	waitTerminal(t, s, view.ID, 60*time.Second)
}

// waitTerminal polls a job to a terminal state.
func waitTerminal(t *testing.T, s *Server, id string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v, ok := s.jobs.Get(id)
		if !ok || terminalStatus(v.Status) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s at drain deadline", id, v.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
