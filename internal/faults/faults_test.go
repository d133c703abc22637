package faults

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"cdrstoch/internal/obs"
)

func mustNew(t *testing.T, rules []Rule, seed int64, reg *obs.Registry) *Injector {
	t.Helper()
	in, err := New(rules, seed, reg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestNilInjectorIsDisabled(t *testing.T) {
	var in *Injector
	if err := in.Fire("engine.solve"); err != nil {
		t.Fatalf("nil injector fired: %v", err)
	}
	if pts := in.Points(); pts != nil {
		t.Fatalf("nil injector has points: %v", pts)
	}
}

func TestErrorMode(t *testing.T) {
	reg := obs.NewRegistry()
	in := mustNew(t, []Rule{{Point: "x", Mode: ModeError, Count: 2}}, 1, reg)
	for i := 0; i < 2; i++ {
		err := in.Fire("x")
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("fire %d: want ErrInjected, got %v", i, err)
		}
		var fe *Error
		if !errors.As(err, &fe) || fe.Point != "x" {
			t.Fatalf("fire %d: bad error %#v", i, err)
		}
	}
	// The rule is exhausted: the point succeeds from now on.
	for i := 0; i < 5; i++ {
		if err := in.Fire("x"); err != nil {
			t.Fatalf("exhausted rule still fired: %v", err)
		}
	}
	if got := reg.Counter("faults.fired.x").Value(); got != 2 {
		t.Errorf("fired counter = %d, want 2", got)
	}
	// Unarmed points never fire.
	if err := in.Fire("y"); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}
}

func TestAfterSkipsEarlyHits(t *testing.T) {
	in := mustNew(t, []Rule{{Point: "x", Mode: ModeError, After: 3}}, 1, nil)
	for i := 0; i < 3; i++ {
		if err := in.Fire("x"); err != nil {
			t.Fatalf("hit %d fired before After: %v", i, err)
		}
	}
	if err := in.Fire("x"); err == nil {
		t.Fatal("hit 4 did not fire")
	}
}

func TestPanicModeCarriesTypedValue(t *testing.T) {
	in := mustNew(t, []Rule{{Point: "x", Mode: ModePanic}}, 1, nil)
	defer func() {
		r := recover()
		fe, ok := r.(*Error)
		if !ok || fe.Point != "x" {
			t.Fatalf("panic value = %#v, want *Error at x", r)
		}
	}()
	in.Fire("x")
	t.Fatal("point did not panic")
}

func TestDelayModeHonorsContext(t *testing.T) {
	in := mustNew(t, []Rule{{Point: "x", Mode: ModeDelay, Delay: 10 * time.Second}}, 1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := in.FireCtx(ctx, "x"); err != nil {
		t.Fatalf("delay point errored: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("canceled delay slept %v", elapsed)
	}
}

func TestProbabilityIsSeedDeterministic(t *testing.T) {
	decisions := func(seed int64) []bool {
		in := mustNew(t, []Rule{{Point: "x", Mode: ModeError, Prob: 0.5}}, seed, nil)
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.Fire("x") != nil
		}
		return out
	}
	a, b := decisions(42), decisions(42)
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identical seeds", i)
		}
		if a[i] {
			fires++
		}
	}
	if fires == 0 || fires == len(a) {
		t.Fatalf("p=0.5 rule fired %d/%d times", fires, len(a))
	}
	c := decisions(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("seeds 42 and 43 produced identical decision sequences")
	}
}

func TestParseGrammar(t *testing.T) {
	in, err := Parse("engine.solve:error:n=1, cache.put:delay:ms=5:p=0.25, jobs.dequeue:panic:after=2", 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"cache.put", "engine.solve", "jobs.dequeue"}
	got := in.Points()
	if len(got) != len(want) {
		t.Fatalf("points = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("points = %v, want %v", got, want)
		}
	}
	if err := in.Fire("engine.solve"); err == nil {
		t.Error("n=1 rule did not fire once")
	}
	if err := in.Fire("engine.solve"); err != nil {
		t.Errorf("n=1 rule fired twice: %v", err)
	}

	for _, bad := range []string{
		"pointonly",
		"x:nuke",
		"x:error:pfive",
		"x:error:p=abc",
		"x:error:zap=1",
		"x:error:perm=1",
	} {
		if _, err := Parse(bad, 1, nil); err == nil {
			t.Errorf("Parse(%q) accepted a malformed spec", bad)
		}
	}

	for _, empty := range []string{"", "  "} {
		in, err := Parse(empty, 1, nil)
		if err != nil || in != nil {
			t.Errorf("Parse(%q) = %v, %v; want disabled, nil", empty, in, err)
		}
	}
}

// TestFireZeroAlloc pins the acceptance criterion that the injection
// layer adds zero allocations on the solve hot path when disabled: both
// the nil injector and a live injector hit on an unarmed point.
func TestFireZeroAlloc(t *testing.T) {
	var nilIn *Injector
	if allocs := testing.AllocsPerRun(1000, func() {
		nilIn.Fire("engine.solve")
	}); allocs != 0 {
		t.Errorf("nil injector: %v allocs per Fire, want 0", allocs)
	}
	in := mustNew(t, []Rule{{Point: "cache.put", Mode: ModeError}}, 1, nil)
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(1000, func() {
		in.FireCtx(ctx, "engine.solve")
	}); allocs != 0 {
		t.Errorf("unarmed point: %v allocs per Fire, want 0", allocs)
	}
}

// TestFireConcurrent exercises the counters and the rng stream under the
// race detector and checks the Count cap holds across goroutines.
func TestFireConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	in := mustNew(t, []Rule{{Point: "x", Mode: ModeError, Count: 100, Prob: 0.5}}, 9, reg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				in.Fire("x")
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("faults.fired.x").Value(); got != 100 {
		t.Errorf("fired %d times, want exactly Count=100", got)
	}
}
