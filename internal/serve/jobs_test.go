package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"cdrstoch/internal/obs"
)

// waitStatus polls a job until it reaches want or the deadline passes.
func waitStatus(t *testing.T, jobs *Jobs, id, want string) JobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok := jobs.Get(id); ok && v.Status == want {
			return v
		}
		time.Sleep(time.Millisecond)
	}
	v, _ := jobs.Get(id)
	t.Fatalf("job %s stuck in %q, want %q", id, v.Status, want)
	return JobView{}
}

func TestJobsLifecycle(t *testing.T) {
	jobs := NewJobs(1, 4, obs.NewRegistry())
	defer jobs.Close()

	id, err := jobs.Submit("", func(context.Context) ([]byte, bool, error) {
		return []byte(`{"x":1}`), true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v := waitStatus(t, jobs, id, StatusDone)
	if string(v.Result) != `{"x":1}` || !v.Cached {
		t.Errorf("view = %+v", v)
	}

	id, err = jobs.Submit("", func(context.Context) ([]byte, bool, error) {
		return nil, false, errors.New("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	v = waitStatus(t, jobs, id, StatusFailed)
	if v.Error != "boom" {
		t.Errorf("error = %q, want boom", v.Error)
	}
}

func TestJobsBackpressure(t *testing.T) {
	reg := obs.NewRegistry()
	jobs := NewJobs(1, 1, reg)

	block := make(chan struct{})
	running, err := jobs.Submit("", func(context.Context) ([]byte, bool, error) {
		<-block
		return nil, false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, jobs, running, StatusRunning) // the worker is now occupied

	queued, err := jobs.Submit("", func(context.Context) ([]byte, bool, error) {
		return nil, false, nil
	})
	if err != nil {
		t.Fatalf("queue of depth 1 rejected its first entry: %v", err)
	}

	if _, err := jobs.Submit("", func(context.Context) ([]byte, bool, error) {
		return nil, false, nil
	}); !errors.Is(err, ErrQueueFull) {
		t.Errorf("err = %v, want ErrQueueFull", err)
	}
	if got := reg.Snapshot().Counters["serve.jobs_rejected"]; got != 1 {
		t.Errorf("jobs_rejected = %d, want 1", got)
	}

	close(block)
	waitStatus(t, jobs, queued, StatusDone)
	jobs.Close()
}

func TestJobsGracefulDrain(t *testing.T) {
	jobs := NewJobs(2, 8, nil)
	ids := make([]string, 6)
	for i := range ids {
		var err error
		ids[i], err = jobs.Submit("", func(context.Context) ([]byte, bool, error) {
			time.Sleep(time.Millisecond)
			return []byte("done"), false, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	jobs.Close() // must block until every queued job ran

	for _, id := range ids {
		v, ok := jobs.Get(id)
		if !ok || v.Status != StatusDone {
			t.Errorf("job %s after drain: %+v (present %v)", id, v, ok)
		}
	}
	if _, err := jobs.Submit("", func(context.Context) ([]byte, bool, error) {
		return nil, false, nil
	}); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("submit after close: err = %v, want ErrShuttingDown", err)
	}
}

func TestJobsCancelAll(t *testing.T) {
	jobs := NewJobs(1, 2, nil)
	id, err := jobs.Submit("", func(ctx context.Context) ([]byte, bool, error) {
		<-ctx.Done()
		return nil, false, fmt.Errorf("stopped: %w", ctx.Err())
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, jobs, id, StatusRunning)
	jobs.CancelAll()
	v := waitStatus(t, jobs, id, StatusCanceled)
	if v.Error == "" {
		t.Error("canceled job carries no error detail")
	}
	jobs.Close()
}

func TestJobsEvictOldFinished(t *testing.T) {
	// One worker finishes jobs in submission order, so the oldest finished
	// records are exactly the first ones submitted.
	jobs := NewJobs(1, 16, nil)
	var ids []string
	for i := 0; i < maxFinishedJobs+8; i++ {
		for {
			id, err := jobs.Submit("", func(context.Context) ([]byte, bool, error) {
				return nil, false, nil
			})
			if errors.Is(err, ErrQueueFull) {
				time.Sleep(50 * time.Microsecond)
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
			break
		}
	}
	jobs.Close()
	evicted := len(ids) - maxFinishedJobs
	for i, id := range ids {
		_, ok := jobs.Get(id)
		if i < evicted && ok {
			t.Errorf("job %d (%s) should have been evicted from the finished set", i, id)
		}
		if i >= evicted && !ok {
			t.Errorf("job %d (%s) should have been retained in the finished set", i, id)
		}
	}
}
