package serve

// The chaos suite drives the full HTTP service with deterministic fault
// injection armed at every seam and asserts the hardening invariants:
//
//   - the process never dies (a /healthz probe answers 200 after every
//     storm);
//   - every 5xx body and header carries the trace ID;
//   - the cache never serves a corrupted body — replay after the fault
//     clears is byte-identical;
//   - no singleflight waiter is ever stranded (concurrent bursts always
//     complete);
//   - async jobs fail cleanly on injected errors and panics, after one
//     attempt, and never take the worker down.
//
// The seed comes from CDR_FAULTS_SEED (default 1) so ci.sh can replay
// the same storms across a fixed seed matrix. `go test -short` skips the
// suite.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"cdrstoch/internal/faults"
	"cdrstoch/internal/obs"
)

// chaosSeed reads the injection seed the same way cdrserved does, so a
// failing CI storm reproduces locally with one env var.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	v := os.Getenv("CDR_FAULTS_SEED")
	if v == "" {
		return 1
	}
	seed, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("CDR_FAULTS_SEED=%q: %v", v, err)
	}
	return seed
}

// newChaosServer arms spec on a fresh test server.
func newChaosServer(t *testing.T, spec string, cfg ServerConfig) (*Server, string, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	inj, err := faults.Parse(spec, chaosSeed(t), reg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Registry = reg
	cfg.Faults = inj
	s, ts, _ := newTestServer(t, cfg)
	return s, ts.URL, reg
}

// checkErrorCarriesTrace asserts the non-2xx contract: the X-Trace-Id
// header is set and the JSON body repeats the trace ID next to the error.
func checkErrorCarriesTrace(t *testing.T, resp *http.Response, body []byte) {
	t.Helper()
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Errorf("%d response lacks X-Trace-Id header", resp.StatusCode)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("%d body is not an error envelope: %v\n%s", resp.StatusCode, err, body)
	}
	if eb.Error == "" || eb.TraceID == "" {
		t.Errorf("%d body missing error/trace_id: %s", resp.StatusCode, body)
	}
	if eb.TraceID != resp.Header.Get("X-Trace-Id") {
		t.Errorf("body trace %q != header trace %q", eb.TraceID, resp.Header.Get("X-Trace-Id"))
	}
}

// checkAlive asserts the process-survival invariant after a storm.
func checkAlive(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("healthz after storm: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after storm = %d, want 200", resp.StatusCode)
	}
}

// TestChaosSyncMatrix storms every synchronous seam with every mode. Each
// cell arms a one-shot fault (n=1), fires a concurrent burst of identical
// requests through it (the stranded-waiter probe), then replays after the
// fault has cleared and checks byte-identical recovery.
func TestChaosSyncMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short")
	}
	cases := []struct {
		point string
		mode  string
		// clean reports that this cell's fault is absorbed without a 5xx
		// (delays just slow the request; a skipped cache insert re-solves).
		clean bool
	}{
		{"engine.solve", "error", false},
		{"engine.solve", "panic", false},
		{"engine.solve", "delay", true},
		{"singleflight.leader", "error", false},
		{"singleflight.leader", "panic", false},
		{"singleflight.leader", "delay", true},
		{"multigrid.cycle", "error", false},
		{"multigrid.cycle", "panic", false},
		{"multigrid.cycle", "delay", true},
		{"cache.put", "error", true},
		{"cache.put", "panic", false},
		{"cache.put", "delay", true},
	}
	for _, tc := range cases {
		t.Run(tc.point+"/"+tc.mode, func(t *testing.T) {
			spec := fmt.Sprintf("%s:%s:n=1", tc.point, tc.mode)
			if tc.mode == "delay" {
				spec += ":ms=30"
			}
			_, url, reg := newChaosServer(t, spec, ServerConfig{SyncTimeout: time.Minute})
			req := solveRequest{Spec: testSpec(t)}

			// Storm: a concurrent burst through the armed seam. Every
			// request must complete — a stranded singleflight waiter would
			// hang the burst until the test deadline kills the run.
			const burst = 4
			var wg sync.WaitGroup
			codes := make([]int, burst)
			bodies := make([][]byte, burst)
			for i := 0; i < burst; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					resp, body := postJSON(t, url+"/v1/analyze", req)
					codes[i] = resp.StatusCode
					bodies[i] = body
					if resp.StatusCode >= 500 {
						checkErrorCarriesTrace(t, resp, body)
					} else if resp.StatusCode != http.StatusOK {
						t.Errorf("burst %d: status %d\n%s", i, resp.StatusCode, body)
					}
				}(i)
			}
			wg.Wait()
			fired := reg.Counter("faults.fired." + tc.point).Value()
			if fired != 1 {
				t.Errorf("faults.fired.%s = %d, want the armed one-shot to fire once", tc.point, fired)
			}
			saw5xx := false
			for _, c := range codes {
				if c >= 500 {
					saw5xx = true
				}
			}
			if tc.clean && saw5xx {
				t.Errorf("codes %v: an absorbed fault surfaced a 5xx", codes)
			}
			if !tc.clean && !saw5xx {
				t.Errorf("codes %v: the storm never surfaced the fault", codes)
			}

			// Recovery: the fault is exhausted; the same spec must now
			// solve and replay byte-identically, including against any
			// body the storm already served.
			respA, bodyA := postJSON(t, url+"/v1/analyze", req)
			respB, bodyB := postJSON(t, url+"/v1/analyze", req)
			if respA.StatusCode != http.StatusOK || respB.StatusCode != http.StatusOK {
				t.Fatalf("post-fault replay: %d then %d\n%s", respA.StatusCode, respB.StatusCode, bodyA)
			}
			if !bytes.Equal(bodyA, bodyB) {
				t.Errorf("post-fault replay bodies differ:\n%s\nvs\n%s", bodyA, bodyB)
			}
			if respB.Header.Get("X-Cache") != "hit" {
				t.Errorf("second post-fault replay X-Cache = %q, want hit", respB.Header.Get("X-Cache"))
			}
			// A storm body served while the cache.put fault skipped the
			// insert was never cached; the replay solved it again, to the
			// same bytes, since a body holds no wall-clock field.
			for i, c := range codes {
				if c == http.StatusOK && !bytes.Equal(bodies[i], bodyA) {
					t.Errorf("storm body %d differs from post-fault body:\n%s\nvs\n%s", i, bodies[i], bodyA)
				}
			}
			checkAlive(t, url)
		})
	}
}

// TestChaosCacheEvict arms the eviction seam on a one-entry cache: an
// injected eviction failure may leave the cache transiently over
// capacity but never corrupts it — every stored body replays
// byte-identically and the next insert finishes the deferred eviction.
func TestChaosCacheEvict(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short")
	}
	specs := testSpecVariants(t)

	t.Run("error", func(t *testing.T) {
		e, url, _ := newChaosServer(t, "cache.evict:error:n=1",
			ServerConfig{Engine: EngineConfig{CacheEntries: 1}, SyncTimeout: time.Minute})
		_, bodyA := postJSON(t, url+"/v1/analyze", solveRequest{Spec: specs[0]})
		// Inserting B trips the eviction fault: A stays, cache runs over
		// capacity, the request itself is unaffected.
		respB, _ := postJSON(t, url+"/v1/analyze", solveRequest{Spec: specs[1]})
		if respB.StatusCode != http.StatusOK {
			t.Fatalf("insert across failed eviction: %d", respB.StatusCode)
		}
		if n := e.engine.CacheLen(); n != 2 {
			t.Errorf("cache len after failed eviction = %d, want 2 (deferred evict)", n)
		}
		respA2, bodyA2 := postJSON(t, url+"/v1/analyze", solveRequest{Spec: specs[0]})
		if respA2.Header.Get("X-Cache") != "hit" || !bytes.Equal(bodyA, bodyA2) {
			t.Errorf("entry surviving a failed eviction must replay byte-identically (X-Cache=%q)",
				respA2.Header.Get("X-Cache"))
		}
		// The next insert drains the backlog down to capacity.
		postJSON(t, url+"/v1/analyze", solveRequest{Spec: specs[2]})
		if n := e.engine.CacheLen(); n != 1 {
			t.Errorf("cache len after recovery insert = %d, want 1", n)
		}
		checkAlive(t, url)
	})

	t.Run("panic", func(t *testing.T) {
		e, url, _ := newChaosServer(t, "cache.evict:panic:n=1",
			ServerConfig{Engine: EngineConfig{CacheEntries: 1}, SyncTimeout: time.Minute})
		_, bodyA := postJSON(t, url+"/v1/analyze", solveRequest{Spec: specs[0]})
		// The panic fires mid-insert of B: that request 500s, but the
		// insert itself completed before the eviction step, so both
		// entries stay intact.
		respB, errB := postJSON(t, url+"/v1/analyze", solveRequest{Spec: specs[1]})
		if respB.StatusCode != http.StatusInternalServerError {
			t.Fatalf("eviction panic: %d, want 500", respB.StatusCode)
		}
		checkErrorCarriesTrace(t, respB, errB)
		if n := e.engine.CacheLen(); n != 2 {
			t.Errorf("cache len after eviction panic = %d, want 2 (insert completed)", n)
		}
		respA2, bodyA2 := postJSON(t, url+"/v1/analyze", solveRequest{Spec: specs[0]})
		if respA2.StatusCode != http.StatusOK || !bytes.Equal(bodyA, bodyA2) {
			t.Errorf("cache corrupted by eviction panic: %d", respA2.StatusCode)
		}
		respB2, bodyB2 := postJSON(t, url+"/v1/analyze", solveRequest{Spec: specs[1]})
		respB3, bodyB3 := postJSON(t, url+"/v1/analyze", solveRequest{Spec: specs[1]})
		if respB2.StatusCode != http.StatusOK || respB3.StatusCode != http.StatusOK ||
			!bytes.Equal(bodyB2, bodyB3) {
			t.Errorf("post-panic replay of the inserting spec differs")
		}
		checkAlive(t, url)
	})
}

// pollJob polls the HTTP jobs endpoint until the job reaches a terminal
// status.
func pollJob(t *testing.T, url, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := getJSON(t, url+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: %d\n%s", id, resp.StatusCode, body)
		}
		var v JobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		switch v.Status {
		case StatusDone, StatusFailed, StatusCanceled:
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal status", id)
	return JobView{}
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// submitAsync posts an async analyze and returns the accepted job ID.
func submitAsync(t *testing.T, url string, req solveRequest) string {
	t.Helper()
	req.Async = true
	resp, body := postJSON(t, url+"/v1/analyze", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: %d\n%s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	return v.ID
}

// TestChaosJobsDequeue storms the async path through the jobs.dequeue
// seam: an injected error or panic fails exactly that job, before its
// solve starts, and the worker pool keeps serving afterwards.
func TestChaosJobsDequeue(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short")
	}
	base := ServerConfig{SyncTimeout: time.Minute}

	// The service never re-runs a job: a one-shot (transient) fault is
	// retried by the caller, whose resubmission runs clean on the same
	// pool and is the only solve.
	t.Run("transient-error-retries", func(t *testing.T) {
		_, url, reg := newChaosServer(t, "jobs.dequeue:error:n=1", base)
		v := pollJob(t, url, submitAsync(t, url, solveRequest{Spec: testSpec(t)}))
		if v.Status != StatusFailed {
			t.Errorf("first attempt = %+v, want failed", v)
		}
		v = pollJob(t, url, submitAsync(t, url, solveRequest{Spec: testSpec(t)}))
		if v.Status != StatusDone {
			t.Errorf("resubmitted job = %+v, want done", v)
		}
		if got := reg.Counter("serve.solves").Value(); got != 1 {
			t.Errorf("serve.solves = %d after the resubmission, want 1", got)
		}
		checkAlive(t, url)
	})

	// Every injected error is permanent for its job: the job ends failed
	// before its solve starts and is not re-run.
	t.Run("permanent-error-fails", func(t *testing.T) {
		_, url, reg := newChaosServer(t, "jobs.dequeue:error:n=1", base)
		v := pollJob(t, url, submitAsync(t, url, solveRequest{Spec: testSpec(t)}))
		if v.Status != StatusFailed {
			t.Errorf("job = %+v, want failed", v)
		}
		if got := reg.Counter("serve.solves").Value(); got != 0 {
			t.Errorf("serve.solves = %d after the failed dequeue, want 0", got)
		}
		checkAlive(t, url)
	})

	t.Run("panic-fails-job-not-pool", func(t *testing.T) {
		_, url, _ := newChaosServer(t, "jobs.dequeue:panic:n=1", base)
		v := pollJob(t, url, submitAsync(t, url, solveRequest{Spec: testSpec(t)}))
		if v.Status != StatusFailed {
			t.Errorf("job = %+v, want failed", v)
		}
		// The pool survived: the next job runs clean.
		v = pollJob(t, url, submitAsync(t, url, solveRequest{Spec: testSpec(t)}))
		if v.Status != StatusDone {
			t.Errorf("post-panic job = %+v, want done", v)
		}
		checkAlive(t, url)
	})

	t.Run("delay-succeeds", func(t *testing.T) {
		_, url, _ := newChaosServer(t, "jobs.dequeue:delay:ms=30:n=1", base)
		v := pollJob(t, url, submitAsync(t, url, solveRequest{Spec: testSpec(t)}))
		if v.Status != StatusDone {
			t.Errorf("delayed job = %+v, want done", v)
		}
		checkAlive(t, url)
	})
}
