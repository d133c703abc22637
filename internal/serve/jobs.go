package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"cdrstoch/internal/faults"
	"cdrstoch/internal/obs"
	"cdrstoch/internal/obs/cost"
	"cdrstoch/internal/obs/progress"
)

// ErrQueueFull reports that the job queue rejected a submission; the HTTP
// layer maps it to 429 with a Retry-After hint.
var ErrQueueFull = errors.New("serve: job queue full")

// ErrShuttingDown reports a submission after Close began draining.
var ErrShuttingDown = errors.New("serve: shutting down")

// ErrShedOnShutdown reports a job that was still queued when the hard
// shutdown (CancelAll) hit: it never started and will not run. Distinct
// from a cancellation mid-run, so operators can tell dropped work from
// interrupted work.
var ErrShedOnShutdown = errors.New("serve: job shed on shutdown")

// Job statuses, in lifecycle order.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// JobView is the poll response of /v1/jobs/{id}. Result is present only
// once Status is "done". TraceID names the trace the job's solver events
// are stamped with; GET /v1/jobs/{id}/trace serves them.
type JobView struct {
	ID      string          `json:"id"`
	Status  string          `json:"status"`
	TraceID string          `json:"trace_id,omitempty"`
	Cached  bool            `json:"cached,omitempty"`
	Error   string          `json:"error,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	// QueuedAt and StartedAt (RFC 3339, nanosecond precision) separate
	// queue wait from run time; StartedAt is absent while the job is still
	// queued.
	QueuedAt  string `json:"queued_at,omitempty"`
	StartedAt string `json:"started_at,omitempty"`
	// Progress is the live view of the job's in-flight solve (phase,
	// iteration, residual, watchdog state, ETA), attached by the HTTP
	// layer at poll time while the job runs.
	Progress *progress.SolveProgress `json:"progress,omitempty"`
	// Cost is the SolveReport of the job's solve, attached by the HTTP
	// layer at poll time for terminal jobs whose report the progress
	// table's finished tail still keeps (matched by TraceID).
	Cost *cost.SolveReport `json:"cost,omitempty"`
}

// job is the internal record behind a JobView.
type job struct {
	id    string
	trace string
	run   func(context.Context) ([]byte, bool, error)

	mu        sync.Mutex
	status    string
	cached    bool
	err       string
	body      []byte
	queuedAt  time.Time
	startedAt time.Time
}

func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{ID: j.id, Status: j.status, TraceID: j.trace, Cached: j.cached,
		Error: j.err, Result: j.body}
	if !j.queuedAt.IsZero() {
		v.QueuedAt = j.queuedAt.UTC().Format(time.RFC3339Nano)
	}
	if !j.startedAt.IsZero() {
		v.StartedAt = j.startedAt.UTC().Format(time.RFC3339Nano)
	}
	return v
}

func (j *job) set(status string, body []byte, cached bool, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = status
	if status == StatusRunning && j.startedAt.IsZero() {
		j.startedAt = time.Now()
	}
	j.body = body
	j.cached = cached
	if err != nil {
		j.err = err.Error()
	}
}

// maxFinishedJobs bounds how many completed job records are retained for
// polling; beyond it the oldest finished records are dropped and polls
// for them return 404.
const maxFinishedJobs = 1024

// JobsConfig parameterizes a Jobs queue.
type JobsConfig struct {
	// Workers is the worker pool size. Default 1.
	Workers int
	// Depth bounds the queue; a full queue refuses submissions. Default 1.
	Depth int
	// Registry receives the serve.jobs_* metrics. May be nil.
	Registry *obs.Registry
	// Faults arms the jobs.dequeue injection point. May be nil.
	Faults *faults.Injector
}

// Jobs is a bounded asynchronous work queue: Submit enqueues with
// backpressure, a fixed worker pool drains, finished results stay
// pollable until evicted. Each job runs once: a solve is deterministic in
// its spec and backend, so a failed job would fail the same way again.
// Panics fail the job, never the process. Close drains gracefully —
// queued jobs still run; new submissions are refused.
type Jobs struct {
	queue  chan *job
	wg     sync.WaitGroup
	reg    *obs.Registry
	faults *faults.Injector

	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	finished []string // eviction order for completed records
	seq      int
	closed   bool
}

// NewJobs starts a pool of cfg.Workers workers consuming a queue of
// cfg.Depth. Jobs run under a context canceled only by CancelAll — a
// disconnected submitter must not kill a job another poller may still
// want.
func NewJobs(cfg JobsConfig) *Jobs {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Depth < 1 {
		cfg.Depth = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &Jobs{
		queue:   make(chan *job, cfg.Depth),
		reg:     cfg.Registry,
		faults:  cfg.Faults,
		baseCtx: ctx,
		cancel:  cancel,
		jobs:    make(map[string]*job),
	}
	// Queue depth is computed at scrape time, so queue wait — previously
	// folded invisibly into job wall time — is observable directly.
	j.reg.GaugeFunc("serve.jobs_queue_depth", func() float64 { return float64(len(j.queue)) })
	j.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go j.worker()
	}
	return j
}

func (j *Jobs) worker() {
	defer j.wg.Done()
	for t := range j.queue {
		j.reg.Gauge("serve.jobs_queued").Set(float64(len(j.queue)))
		j.runJob(t)
		j.retire(t.id)
	}
}

// runJob executes one dequeued job, once, to a terminal status: done,
// failed, canceled, or shed. Panics inside the job body become a failed
// job via the shield — a panicking job must fail that job, not the
// process.
func (j *Jobs) runJob(t *job) {
	// A job dequeued after the hard-shutdown cancel never starts: it is
	// reported failed with the distinct shed error rather than silently
	// dropped or misreported as a mid-run cancellation.
	if j.baseCtx.Err() != nil {
		t.set(StatusFailed, nil, false, ErrShedOnShutdown)
		j.reg.Counter("serve.jobs_shed").Inc()
		return
	}
	t.set(StatusRunning, nil, false, nil)
	// Jobs run under the pool's own context (a disconnected submitter
	// must not kill them) but keep the submitting request's trace
	// identity, so solver events stay attributable to the request.
	ctx := j.baseCtx
	if t.trace != "" {
		ctx = obs.ContextWithTrace(ctx, t.trace, t.id)
	}
	var body []byte
	var cached bool
	err := shield(func() error {
		if ferr := j.faults.FireCtx(ctx, "jobs.dequeue"); ferr != nil {
			return fmt.Errorf("serve: dequeue: %w", ferr)
		}
		var rerr error
		body, cached, rerr = t.run(ctx)
		return rerr
	})
	switch {
	case err == nil:
		t.set(StatusDone, body, cached, nil)
		j.reg.Counter("serve.jobs_done").Inc()
	case errors.Is(err, context.Canceled):
		t.set(StatusCanceled, nil, false, err)
		j.reg.Counter("serve.jobs_canceled").Inc()
	default:
		t.set(StatusFailed, nil, false, err)
		j.reg.Counter("serve.jobs_failed").Inc()
	}
}

// retire records a finished job for eviction accounting.
func (j *Jobs) retire(id string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = append(j.finished, id)
	for len(j.finished) > maxFinishedJobs {
		delete(j.jobs, j.finished[0])
		j.finished = j.finished[1:]
	}
}

// Submit enqueues run for asynchronous execution and returns the job ID.
// trace is the submitting request's trace ID (empty for untraced
// submissions); the job's context carries it so solver events stay tied
// to the request. A full queue returns ErrQueueFull immediately (never
// blocks): that backpressure is the contract that keeps the daemon
// responsive.
//
// The registration and the enqueue happen under one lock so a Submit
// racing Close can never send on the closed queue channel: either it
// observes closed and refuses, or the send completes before Close closes
// the channel (Close serializes behind the same lock).
func (j *Jobs) Submit(trace string, run func(context.Context) ([]byte, bool, error)) (string, error) {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return "", ErrShuttingDown
	}
	j.seq++
	t := &job{id: fmt.Sprintf("job-%06d", j.seq), trace: trace, run: run,
		status: StatusQueued, queuedAt: time.Now()}
	select {
	case j.queue <- t:
		j.jobs[t.id] = t
		j.mu.Unlock()
		j.reg.Counter("serve.jobs_submitted").Inc()
		j.reg.Gauge("serve.jobs_queued").Set(float64(len(j.queue)))
		return t.id, nil
	default:
		j.mu.Unlock()
		j.reg.Counter("serve.jobs_rejected").Inc()
		return "", ErrQueueFull
	}
}

// Get returns the current view of a job, if it is still retained.
func (j *Jobs) Get(id string) (JobView, bool) {
	j.mu.Lock()
	t, ok := j.jobs[id]
	j.mu.Unlock()
	if !ok {
		return JobView{}, false
	}
	return t.view(), true
}

// Close refuses new submissions, lets queued jobs drain, and returns when
// every worker has exited. Safe to call once.
func (j *Jobs) Close() {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return
	}
	j.closed = true
	j.mu.Unlock()
	close(j.queue)
	j.wg.Wait()
}

// CancelAll aborts running jobs by canceling their shared context; jobs
// still queued at that point are shed (StatusFailed, ErrShedOnShutdown)
// instead of started. Meant for hard shutdown after a drain deadline
// passes.
func (j *Jobs) CancelAll() { j.cancel() }
