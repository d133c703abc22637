package multigrid_test

import (
	"math"
	"runtime"
	"testing"

	"cdrstoch/internal/core"
	"cdrstoch/internal/experiments"
	"cdrstoch/internal/multigrid"
)

// retainedGrowth returns the live heap that build adds, with the built
// solver reachable, and the solver. Each side collects twice: a
// sync.Pool's victim cache and an object with a finalizer survive one
// collection.
func retainedGrowth(t *testing.T, build func() (*multigrid.Solver, error)) (int64, *multigrid.Solver) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := build()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc), s
}

// TestWorkspaceBytesMatchesRetainedHeap checks the workspace figure the
// cost surface reports against the live heap a solver holds: a new solver
// after one cycle, which allocates the coarsest GTH workspace, with the
// caller's matrix (its cached transpose built) or descriptor already in
// place. The two must agree within 5 % on Figure 5 at counters 8 and 32,
// explicit, and at counter 32 matrix-free.
func TestWorkspaceBytesMatchesRetainedHeap(t *testing.T) {
	cases := []struct {
		name    string
		counter int
		kron    bool
	}{
		{"explicit/counter8", 8, false},
		{"explicit/counter32", 32, false},
		{"kron/counter32", 32, true},
	}
	for _, c := range cases {
		m, err := core.Build(experiments.Fig5Spec(c.counter))
		if err != nil {
			t.Fatal(err)
		}
		parts, err := m.Hierarchy(4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := multigrid.Config{MaxCycles: 1, Workers: 1}
		newSolver := func() (*multigrid.Solver, error) { return multigrid.New(m.P, parts, cfg) }
		if c.kron {
			d, err := m.BuildDescriptor()
			if err != nil {
				t.Fatal(err)
			}
			newSolver = func() (*multigrid.Solver, error) { return multigrid.NewKron(d, 2, parts, cfg) }
		}
		build := func() (*multigrid.Solver, error) {
			s, err := newSolver()
			if err != nil {
				return nil, err
			}
			_, err = s.Solve(nil)
			return s, err
		}
		m.P.T()
		// A first solver fills whatever the caller's matrix or descriptor
		// caches on first use.
		if _, err := build(); err != nil {
			t.Fatal(err)
		}
		growth, s := retainedGrowth(t, build)
		got := s.WorkspaceBytes()
		// The caller's matrix, descriptor and partitions, reachable
		// through build, must outlive the measurement: a NewKron solver
		// keeps no reference to the partitions it folds.
		runtime.KeepAlive(build)
		rel := float64(got-growth) / float64(growth)
		t.Logf("%s: workspace %.2f MiB, retained heap %.2f MiB (%+.1f%%)",
			c.name, float64(got)/(1<<20), float64(growth)/(1<<20), 100*rel)
		if math.Abs(rel) > 0.05 {
			t.Errorf("%s: workspace figure %d bytes, retained heap %d bytes: off by %+.1f%%",
				c.name, got, growth, 100*rel)
		}
	}
}
