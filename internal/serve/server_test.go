package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"cdrstoch/internal/core"
	"cdrstoch/internal/obs"
)

// newTestServer returns a Server, its httptest wrapper, and the registry.
func newTestServer(t *testing.T, cfg ServerConfig) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts, cfg.Registry
}

func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestWriteBodyLeavesSharedSliceAlone pins the immutability contract the
// cache and singleflight rely on: writeBody serves the same slice to
// every concurrent response, so it must not write into the slice's
// backing array — not even into spare capacity past len, which is where
// appending the trailing newline used to land (a data race between
// handlers, caught by the chaos suite only when json.Marshal's size
// class left room). The sentinel in the spare capacity makes the check
// deterministic.
func TestWriteBodyLeavesSharedSliceAlone(t *testing.T) {
	body := make([]byte, 64, 128)
	backing := body[:cap(body)]
	for i := range backing {
		backing[i] = 'x'
	}
	var s Server // nil registry: counters are no-ops
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			s.writeBody(rec, body, true)
			if got := rec.Body.String(); got != string(body)+"\n" {
				t.Errorf("response = %q", got)
			}
		}()
	}
	wg.Wait()
	for i, b := range backing {
		if b != 'x' {
			t.Fatalf("backing array mutated at offset %d: %q", i, b)
		}
	}
}

// TestServerConcurrentCachedResponses pins writeBody's shared-slice
// contract: the cached body is one slice handed to every concurrent
// response, so the handler must never mutate it (the old append of the
// trailing newline wrote into the shared backing array — a data race
// the detector catches here, and torn bytes without it). All responses
// must come back byte-identical.
func TestServerConcurrentCachedResponses(t *testing.T) {
	_, ts, _ := newTestServer(t, ServerConfig{})
	req := solveRequest{Spec: testSpec(t)}
	_, want := postJSON(t, ts.URL+"/v1/analyze", req) // prime the cache

	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, err := json.Marshal(req)
			if err != nil {
				errs <- err
				return
			}
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(b))
			if err != nil {
				errs <- err
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			if !bytes.Equal(body, want) {
				errs <- fmt.Errorf("concurrent cached body differs:\n%s\nvs\n%s", body, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServerAnalyzeCacheFlow(t *testing.T) {
	_, ts, reg := newTestServer(t, ServerConfig{})
	req := solveRequest{Spec: testSpec(t)}

	resp1, body1 := postJSON(t, ts.URL+"/v1/analyze", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first X-Cache = %q, want miss", got)
	}

	resp2, body2 := postJSON(t, ts.URL+"/v1/analyze", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second POST: %d %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("cached response differs:\n%s\nvs\n%s", body1, body2)
	}
	if got := reg.Snapshot().Counters["serve.cache_hits"]; got != 1 {
		t.Errorf("cache_hits = %d, want 1", got)
	}
}

func TestServerRejectsBadInput(t *testing.T) {
	_, ts, _ := newTestServer(t, ServerConfig{})
	cases := []struct {
		name string
		body string
	}{
		{"not json", `{`},
		{"unknown field", `{"spex": {}}`},
		{"invalid spec", `{"spec": {"grid_step": -1}}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// A drift PMF whose origin is off zero is a 400, not a model that
// silently solves the origin-free chain.
func TestServerRejectsDriftOrigin(t *testing.T) {
	_, ts, _ := newTestServer(t, ServerConfig{})
	spec := core.DefaultSpec()
	drift := *spec.Drift
	drift.Origin = spec.GridStep
	spec.Drift = &drift
	resp, body := postJSON(t, ts.URL+"/v1/analyze", solveRequest{Spec: spec})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d (%s), want 400", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "origin") {
		t.Errorf("error body %s does not name the drift origin", body)
	}
}

// A spec whose frame no solver can index is a 400 that names the state
// count, answered before the request takes a solve slot: a 1/65,536 UI
// grid at counter 4,096 (3.2·10⁹ states) and a 1e−300 UI grid, whose
// phase-grid size overflows an int. Neither is built.
func TestServerRejectsUnindexableSpecs(t *testing.T) {
	_, ts, reg := newTestServer(t, ServerConfig{})
	fine, tiny := core.DefaultSpec(), core.DefaultSpec()
	fine.GridStep, fine.CounterLen = 1.0/65536, 4096
	tiny.GridStep = 1e-300
	for _, spec := range []core.Spec{fine, tiny} {
		drift := *spec.Drift
		drift.Step = spec.GridStep
		spec.Drift = &drift
		resp, body := postJSON(t, ts.URL+"/v1/analyze", solveRequest{Spec: spec})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GridStep %g: status %d (%s), want 400", spec.GridStep, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "states exceed") {
			t.Errorf("GridStep %g: error body %s does not name the state count", spec.GridStep, body)
		}
	}
	if n := reg.Snapshot().Counters["serve.solves"]; n != 0 {
		t.Errorf("%d solves started for rejected specs", n)
	}
}

func TestServerSweepEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, ServerConfig{})
	resp, body := postJSON(t, ts.URL+"/v1/sweep", sweepRequest{
		Spec: testSpec(t), Param: "counter", Values: []float64{1, 2},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sweep SweepBody
	if err := json.Unmarshal(body, &sweep); err != nil {
		t.Fatal(err)
	}
	if len(sweep.Points) != 2 || sweep.Points[0].Error != "" || sweep.Points[1].Error != "" {
		t.Errorf("sweep = %+v", sweep)
	}

	resp, body = postJSON(t, ts.URL+"/v1/sweep", sweepRequest{
		Spec: testSpec(t), Param: "nope", Values: []float64{1},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown param: status %d (%s), want 400", resp.StatusCode, body)
	}
}

func TestServerAsyncJobLifecycle(t *testing.T) {
	s, ts, _ := newTestServer(t, ServerConfig{})

	// Solve synchronously first so async and sync bodies can be compared.
	_, syncBody := postJSON(t, ts.URL+"/v1/analyze", solveRequest{Spec: testSpec(t)})

	resp, body := postJSON(t, ts.URL+"/v1/analyze", solveRequest{Spec: testSpec(t), Async: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async POST: %d %s", resp.StatusCode, body)
	}
	var job JobView
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.Status != StatusQueued {
		t.Fatalf("202 body = %+v", job)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body = mustGet(t, ts.URL+"/v1/jobs/"+job.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: %d %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatal(err)
		}
		if job.Status == StatusDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", job.Status)
		}
		time.Sleep(time.Millisecond)
	}
	if !job.Cached {
		t.Error("async job after identical sync solve should be a cache hit")
	}
	if !bytes.Equal(job.Result, bytes.TrimRight(syncBody, "\n")) {
		t.Errorf("async result differs from sync body:\n%s\nvs\n%s", job.Result, syncBody)
	}
	_ = s
}

func mustGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestServerJobNotFound(t *testing.T) {
	_, ts, _ := newTestServer(t, ServerConfig{})
	resp, _ := mustGet(t, ts.URL+"/v1/jobs/job-999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
}

func TestServerQueueBackpressure(t *testing.T) {
	s, ts, _ := newTestServer(t, ServerConfig{Workers: 1, QueueDepth: 1})

	// Occupy the single worker and fill the queue with blocking jobs,
	// then the next async HTTP submission must bounce with 429.
	block := make(chan struct{})
	defer close(block)
	blocker := func(context.Context) ([]byte, bool, error) {
		<-block
		return nil, false, nil
	}
	running, err := s.jobs.Submit("", blocker)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s.jobs, running, StatusRunning)
	if _, err := s.jobs.Submit("", blocker); err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/analyze", solveRequest{Spec: testSpec(t), Async: true})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want 1", got)
	}
}

func TestServerHealthz(t *testing.T) {
	_, ts, _ := newTestServer(t, ServerConfig{})
	resp, body := mustGet(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var health healthBody
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Errorf("health = %+v", health)
	}
	if health.Version == "" {
		t.Error("healthz carries no build version")
	}
}

// uptimeRE matches the one volatile gauge in a snapshot: process uptime
// advances between the HTTP response and the comparison snapshot, so
// byte-parity tests pin it to zero on both sides.
var uptimeRE = regexp.MustCompile(`"process\.uptime_seconds":[0-9.eE+-]+`)

func stripUptime(b []byte) []byte {
	return uptimeRE.ReplaceAll(b, []byte(`"process.uptime_seconds":0`))
}

// TestServerMetricsMatchesSnapshotJSON pins the satellite requirement:
// /metrics serves exactly the bytes of Registry.SnapshotJSON (modulo the
// uptime gauge, which is time-dependent by design).
func TestServerMetricsMatchesSnapshotJSON(t *testing.T) {
	_, ts, reg := newTestServer(t, ServerConfig{})
	postJSON(t, ts.URL+"/v1/analyze", solveRequest{Spec: testSpec(t)}) // populate metrics

	_, got := mustGet(t, ts.URL+"/metrics")
	want, err := reg.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, want = stripUptime(got), stripUptime(want)
	if !bytes.Equal(got, want) {
		t.Errorf("/metrics body diverges from SnapshotJSON:\n%s\nvs\n%s", got, want)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(got, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["serve.solves"] != 1 {
		t.Errorf("metrics solves = %d, want 1", snap.Counters["serve.solves"])
	}
}

// TestServerMetricsRaceClean hammers the registry from writers while
// readers hit /metrics; meaningful under -race.
func TestServerMetricsRaceClean(t *testing.T) {
	_, ts, reg := newTestServer(t, ServerConfig{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				reg.Counter(fmt.Sprintf("test.worker_%d", w%4)).Inc()
				reg.Gauge("test.gauge").Set(float64(i))
				reg.Timer("test.timer").Observe(time.Duration(i))
			}
		}(w)
	}
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, body := mustGet(t, ts.URL+"/metrics")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("metrics status %d", resp.StatusCode)
					return
				}
				if !json.Valid(body) {
					t.Errorf("metrics body invalid JSON under concurrency")
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestServerDefaultSpecRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full default spec solve is slow")
	}
	_, ts, _ := newTestServer(t, ServerConfig{})
	resp, body := postJSON(t, ts.URL+"/v1/analyze", solveRequest{Spec: core.DefaultSpec()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out AnalyzeBody
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Error("default spec did not converge")
	}
}
