package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cdrstoch/internal/faults"
	"cdrstoch/internal/multigrid"
	"cdrstoch/internal/obs"
)

// TestCachedLeaderDeathReelection is the foreign-cancel regression test:
// the leader's caller cancels (or runs out its tighter deadline) while N
// followers wait. The followers must re-elect a leader among themselves
// and must never surface the dead leader's ctx.Err() as their own
// result.
func TestCachedLeaderDeathReelection(t *testing.T) {
	cases := []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
	}{
		{"canceled", func() (context.Context, context.CancelFunc) {
			return context.WithCancel(context.Background())
		}},
		{"deadline-exceeded", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 20*time.Millisecond)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(EngineConfig{})
			const key = "k"
			leaderCtx, killLeader := tc.ctx()
			defer killLeader()

			leaderIn := make(chan struct{})
			leaderOut := make(chan error, 1)
			go func() {
				_, _, err := e.cached(leaderCtx, key, func(ctx context.Context) ([]byte, error) {
					close(leaderIn)
					<-ctx.Done() // the caller dies while followers wait
					return nil, fmt.Errorf("serve: solve: %w", ctx.Err())
				})
				leaderOut <- err
			}()
			<-leaderIn

			const followers = 8
			var reelected atomic.Int64
			var wg sync.WaitGroup
			errs := make([]error, followers)
			bodies := make([][]byte, followers)
			for i := 0; i < followers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					bodies[i], _, errs[i] = e.cached(context.Background(), key, func(ctx context.Context) ([]byte, error) {
						reelected.Add(1)
						return []byte("ok"), nil
					})
				}(i)
			}
			// Let every follower join the doomed flight before killing it.
			for e.sf.joined(key) < followers {
				runtime.Gosched()
			}
			killLeader()
			wg.Wait()

			if err := <-leaderOut; err == nil ||
				!(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
				t.Errorf("leader error = %v, want its own ctx error", err)
			}
			for i := 0; i < followers; i++ {
				if errs[i] != nil {
					t.Errorf("follower %d inherited the dead leader's error: %v", i, errs[i])
				}
				if string(bodies[i]) != "ok" {
					t.Errorf("follower %d body = %q, want ok", i, bodies[i])
				}
			}
			if reelected.Load() == 0 {
				t.Error("no follower re-elected itself leader")
			}
		})
	}
}

// TestGroupLeaderPanicReleasesWaiters pins the no-stranded-waiters
// guarantee: a panicking leader must complete the flight with a
// *PanicError for every waiter instead of leaving done unclosed.
func TestGroupLeaderPanicReleasesWaiters(t *testing.T) {
	var g group
	release := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := g.do("k", func() ([]byte, error) {
			close(release)
			for g.joined("k") < 3 {
				runtime.Gosched()
			}
			panic("leader exploded")
		})
		leaderErr <- err
	}()
	<-release
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = g.do("k", func() ([]byte, error) { return []byte("x"), nil })
		}(i)
	}
	wg.Wait()
	var pe *PanicError
	if err := <-leaderErr; !errors.As(err, &pe) {
		t.Fatalf("leader error = %v, want *PanicError", err)
	}
	for i, err := range errs {
		if !errors.As(err, &pe) {
			t.Errorf("waiter %d error = %v, want the leader's *PanicError", i, err)
		}
	}
}

// TestJobsShedOnShutdown drives a submission across the shutdown edge:
// jobs still queued when the hard cancel hits must be reported failed
// with the distinct shed error — not silently dropped, not misreported
// as mid-run cancellations.
func TestJobsShedOnShutdown(t *testing.T) {
	reg := obs.NewRegistry()
	jobs := NewJobsConfig(JobsConfig{Workers: 1, Depth: 8, Registry: reg})

	blockerStarted := make(chan struct{})
	blocker, err := jobs.Submit("", func(ctx context.Context) ([]byte, bool, error) {
		close(blockerStarted)
		<-ctx.Done()
		return nil, false, fmt.Errorf("solve: %w", ctx.Err())
	})
	if err != nil {
		t.Fatal(err)
	}
	<-blockerStarted

	var queued []string
	for i := 0; i < 3; i++ {
		id, err := jobs.Submit("", func(context.Context) ([]byte, bool, error) {
			return []byte("late"), false, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, id)
	}

	jobs.CancelAll()
	jobs.Close()

	if v := waitStatus(t, jobs, blocker, StatusCanceled); !strings.Contains(v.Error, "context canceled") {
		t.Errorf("blocker error = %q, want a cancellation", v.Error)
	}
	for _, id := range queued {
		v, ok := jobs.Get(id)
		if !ok {
			t.Fatalf("job %s dropped without a record", id)
		}
		if v.Status != StatusFailed || !strings.Contains(v.Error, ErrShedOnShutdown.Error()) {
			t.Errorf("queued job %s = %q/%q, want failed with the shed error", id, v.Status, v.Error)
		}
	}
	if got := reg.Counter("serve.jobs_shed").Value(); got != 3 {
		t.Errorf("jobs_shed = %d, want 3", got)
	}
}

// TestJobsSubmitCloseRace hammers Submit from several goroutines while
// Close runs. Before the fix, a Submit racing Close could send on the
// closed queue channel and kill the process; now every submission either
// lands (and reaches a terminal status) or is refused with
// ErrShuttingDown. A round accepts at most maxFinishedJobs submissions,
// so that retiring finished records never evicts one the test checks,
// however late Close lands.
func TestJobsSubmitCloseRace(t *testing.T) {
	for round := 0; round < 10; round++ {
		jobs := NewJobs(2, 4, nil)
		var accepted sync.Map
		var budget atomic.Int64 // submissions this round may still have accepted
		budget.Store(maxFinishedJobs)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for budget.Add(-1) >= 0 {
					id, err := jobs.Submit("", func(context.Context) ([]byte, bool, error) {
						return []byte("ok"), false, nil
					})
					if errors.Is(err, ErrShuttingDown) {
						return
					}
					if err == nil {
						accepted.Store(id, true)
					} else {
						budget.Add(1) // refused (queue full): the slot is free again
					}
					runtime.Gosched()
				}
			}()
		}
		close(start)
		runtime.Gosched()
		jobs.Close()
		wg.Wait()
		accepted.Range(func(k, _ any) bool {
			v, ok := jobs.Get(k.(string))
			if !ok {
				t.Fatalf("accepted job %v has no record", k)
			}
			if v.Status != StatusDone {
				t.Fatalf("accepted job %v ended %q, want done", k, v.Status)
			}
			return true
		})
	}
}

// TestJobsRetryTransient checks the bounded-retry policy: transient
// failures (a non-permanent injected fault) re-run with backoff and
// eventually succeed; permanent failures do not retry.
func TestJobsRetryTransient(t *testing.T) {
	reg := obs.NewRegistry()
	jobs := NewJobsConfig(JobsConfig{Workers: 1, Depth: 4, Registry: reg,
		RetryMax: 3, RetryBase: time.Millisecond})
	defer jobs.Close()

	var attempts atomic.Int64
	id, err := jobs.Submit("", func(context.Context) ([]byte, bool, error) {
		if attempts.Add(1) <= 2 {
			return nil, false, fmt.Errorf("solve: %w", &faults.Error{Point: "solve"})
		}
		return []byte("ok"), false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v := waitStatus(t, jobs, id, StatusDone)
	if v.Retries != 2 || string(v.Result) != "ok" {
		t.Errorf("view = %+v, want 2 retries and the ok body", v)
	}
	if got := reg.Counter("serve.jobs_retried").Value(); got != 2 {
		t.Errorf("jobs_retried = %d, want 2", got)
	}

	var permAttempts atomic.Int64
	id, err = jobs.Submit("", func(context.Context) ([]byte, bool, error) {
		permAttempts.Add(1)
		return nil, false, errors.New("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	v = waitStatus(t, jobs, id, StatusFailed)
	if v.Retries != 0 || permAttempts.Load() != 1 {
		t.Errorf("permanent failure retried: view=%+v attempts=%d", v, permAttempts.Load())
	}
}

// TestJobsExhaustedRetriesFail checks a persistently transient failure
// surfaces after RetryMax re-runs instead of looping forever.
func TestJobsExhaustedRetriesFail(t *testing.T) {
	jobs := NewJobsConfig(JobsConfig{Workers: 1, Depth: 2,
		RetryMax: 2, RetryBase: time.Millisecond})
	defer jobs.Close()
	var attempts atomic.Int64
	id, err := jobs.Submit("", func(context.Context) ([]byte, bool, error) {
		attempts.Add(1)
		return nil, false, fmt.Errorf("solve: %w", &faults.Error{Point: "solve"})
	})
	if err != nil {
		t.Fatal(err)
	}
	v := waitStatus(t, jobs, id, StatusFailed)
	if attempts.Load() != 3 || v.Retries != 2 {
		t.Errorf("attempts=%d retries=%d, want 3 and 2", attempts.Load(), v.Retries)
	}
	if !strings.Contains(v.Error, "transient injected fault at solve") {
		t.Errorf("error = %q, want the injected cause", v.Error)
	}
}

// TestJobUnconvergedNotRetried checks that an async job whose solve runs
// out of cycles fails after one attempt: the solve is deterministic in
// its spec and backend, so a rerun would fail the same way.
func TestJobUnconvergedNotRetried(t *testing.T) {
	_, ts, reg := newTestServer(t, ServerConfig{
		Engine:       EngineConfig{Multigrid: multigrid.Config{MaxCycles: 1}},
		JobRetryBase: time.Millisecond,
	})
	v := pollJob(t, ts.URL, submitAsync(t, ts.URL, solveRequest{Spec: testSpec(t)}))
	if v.Status != StatusFailed || v.Retries != 0 {
		t.Errorf("job = %+v, want failed without retries", v)
	}
	if !strings.Contains(v.Error, "did not converge") {
		t.Errorf("error = %q, want the unconverged cause", v.Error)
	}
	snap := reg.Snapshot().Counters
	if snap["serve.unconverged"] != 1 || snap["serve.solves"] != 1 {
		t.Errorf("serve.unconverged = %d, serve.solves = %d, want 1 and 1",
			snap["serve.unconverged"], snap["serve.solves"])
	}
	if got := snap["serve.jobs_retried"]; got != 0 {
		t.Errorf("serve.jobs_retried = %d, want 0", got)
	}
}

// TestJobsPanicFailsJobNotProcess pins the panic contract for the async
// path: the job fails with a panic-typed error, is never retried, and
// the worker keeps serving.
func TestJobsPanicFailsJobNotProcess(t *testing.T) {
	jobs := NewJobsConfig(JobsConfig{Workers: 1, Depth: 4,
		RetryMax: 3, RetryBase: time.Millisecond})
	defer jobs.Close()
	var attempts atomic.Int64
	id, err := jobs.Submit("", func(context.Context) ([]byte, bool, error) {
		attempts.Add(1)
		panic("job exploded")
	})
	if err != nil {
		t.Fatal(err)
	}
	v := waitStatus(t, jobs, id, StatusFailed)
	if !strings.Contains(v.Error, "panic: job exploded") {
		t.Errorf("error = %q, want the panic message", v.Error)
	}
	if attempts.Load() != 1 {
		t.Errorf("panicking job ran %d times, want 1 (panics are not retried)", attempts.Load())
	}
	// The worker survived: the next job runs normally.
	id, err = jobs.Submit("", func(context.Context) ([]byte, bool, error) {
		return []byte("alive"), false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := waitStatus(t, jobs, id, StatusDone); string(v.Result) != "alive" {
		t.Errorf("post-panic job = %+v", v)
	}
}

// TestRecoveredMiddleware checks the HTTP panic-recovery layer directly:
// a panicking handler answers 500 with the trace ID, and the
// panics_recovered counter moves.
func TestRecoveredMiddleware(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewServer(ServerConfig{Registry: reg})
	h := s.traced(s.recovered(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler exploded")
	})))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if rec.Header().Get("X-Trace-Id") == "" {
		t.Error("panic response lacks X-Trace-Id header")
	}
	if !strings.Contains(rec.Body.String(), "panic: handler exploded") {
		t.Errorf("body = %s, want the panic message", rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"trace_id"`) {
		t.Errorf("body = %s, want a trace_id field", rec.Body.String())
	}
	if got := reg.Counter("serve.panics_recovered").Value(); got != 1 {
		t.Errorf("panics_recovered = %d, want 1", got)
	}
}

// TestRequestTimeoutHeader checks the deadline propagation rules: the
// client header tightens the server deadline, never loosens it, and
// malformed values are 400s.
func TestRequestTimeoutHeader(t *testing.T) {
	s := NewServer(ServerConfig{SyncTimeout: 10 * time.Second})
	req := func(header string) *http.Request {
		r := httptest.NewRequest("POST", "/v1/analyze", nil)
		if header != "" {
			r.Header.Set("Request-Timeout", header)
		}
		return r
	}
	cases := []struct {
		header string
		want   time.Duration
		bad    bool
	}{
		{"", 10 * time.Second, false},
		{"2", 2 * time.Second, false},
		{"0.25", 250 * time.Millisecond, false},
		{"750ms", 750 * time.Millisecond, false},
		{"1h", 10 * time.Second, false}, // looser than the server cap: ignored
		{"60", 10 * time.Second, false},
		{"0", 0, true},
		{"-3", 0, true},
		{"soon", 0, true},
	}
	for _, tc := range cases {
		got, err := s.syncTimeout(req(tc.header))
		if tc.bad {
			if err == nil || !errors.Is(err, ErrBadRequest) {
				t.Errorf("header %q: want ErrBadRequest, got %v", tc.header, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("header %q: got %v, %v; want %v", tc.header, got, err, tc.want)
		}
	}
}

// TestRequestTimeoutTightensSolve drives the full HTTP path: a delay
// fault stalls the solve past the client's Request-Timeout, and the
// request answers 504 with the trace ID attached.
func TestRequestTimeoutTightensSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection test skipped in -short")
	}
	reg := obs.NewRegistry()
	inj, err := faults.Parse("engine.solve:delay:d=5s:n=1", 1, reg)
	if err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newTestServer(t, ServerConfig{Registry: reg, Faults: inj, SyncTimeout: time.Minute})
	client := &http.Client{Timeout: 30 * time.Second}
	body, err := json.Marshal(solveRequest{Spec: testSpec(t)})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest("POST", ts.URL+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Request-Timeout", "100ms")
	start := time.Now()
	resp, err := client.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Error("timeout response lacks X-Trace-Id")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("tightened deadline took %v, want well under the injected 5s stall", elapsed)
	}
}
