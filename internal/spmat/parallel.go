package spmat

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// ParallelCutoff is the stored-entry count below which the pool kernels
// fall back to the serial loops: at this size one sparse product costs on
// the order of the dispatch itself (two channel operations per worker, a
// few microseconds), so splitting smaller matrices only adds latency.
// Chosen with BenchmarkPoolCrossover in parallel_bench_test.go; it is a
// variable so deployments on unusual hardware can retune it at startup.
var ParallelCutoff = 1 << 14

// Kernel identifiers of a pool dispatch.
const (
	jobNone = iota
	jobMulVec
	jobMulVecs
	jobRows
)

// poolJob carries the arguments of the dispatch in flight. Workers hold
// only the job and the channels — never the Pool — so an abandoned Pool
// becomes unreachable and its finalizer can release the team.
type poolJob struct {
	kind   int
	m      *CSR
	y, x   []float64
	ys, xs [][]float64
	fn     func(part, lo, hi int)
	bounds []int // row partition, len workers+1
}

// run executes the in-flight kernel over partition member id.
func (j *poolJob) run(id int) {
	lo, hi := j.bounds[id], j.bounds[id+1]
	switch j.kind {
	case jobMulVec:
		j.m.mulVecRange(j.y, j.x, lo, hi)
	case jobMulVecs:
		j.m.mulVecsRange(j.ys, j.xs, lo, hi)
	case jobRows:
		j.fn(id, lo, hi)
	}
}

// Pool is a reusable team of worker goroutines executing row-partitioned
// sparse kernels. Rows are split into Workers() contiguous spans of
// roughly equal stored-entry count (nnz-balanced), so skewed matrices do
// not idle most of the team. A Pool is NOT safe for concurrent dispatch:
// one kernel runs at a time, matching the solver loops it serves. The
// zero-cost serial cases — nil Pool, a single worker, or a matrix below
// ParallelCutoff — run the plain loops on the calling goroutine, so
// callers can thread a Pool unconditionally.
//
// Close releases the worker goroutines; it is idempotent and also runs
// as a finalizer, so pools handed to sync.Pool (the service path) are
// reclaimed even when dropped without Close.
type Pool struct {
	workers   int
	cmd       chan int
	done      chan struct{}
	job       *poolJob
	closeOnce sync.Once
	stats     poolStats
}

// NewPool starts a team of the given size. workers <= 0 selects
// runtime.GOMAXPROCS(0) — the "use the machine" default; workers == 1
// yields a serial pool with no goroutines.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers == 1 {
		return p
	}
	p.job = &poolJob{bounds: make([]int, workers+1)}
	p.cmd = make(chan int, workers)
	p.done = make(chan struct{}, workers)
	job, cmd, done := p.job, p.cmd, p.done
	for i := 0; i < workers; i++ {
		go func() {
			for id := range cmd {
				job.run(id)
				done <- struct{}{}
			}
		}()
	}
	runtime.SetFinalizer(p, (*Pool).Close)
	return p
}

// Workers reports the partition width. A nil pool is serial.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Close stops the worker goroutines. Idempotent; a closed pool must not
// be dispatched to again.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.closeOnce.Do(func() {
		if p.cmd != nil {
			runtime.SetFinalizer(p, nil)
			close(p.cmd)
		}
	})
}

// serialFor reports whether m should bypass the team.
func (p *Pool) serialFor(m *CSR) bool {
	return p == nil || p.workers == 1 || m.NNZ() < ParallelCutoff
}

// rowBounds fills the job's partition with row spans of roughly equal
// stored-entry count. Depends only on (matrix, worker count), so repeated
// dispatches partition — and therefore reduce — identically: results are
// deterministic for a fixed worker count.
func (p *Pool) rowBounds(m *CSR) {
	b := p.job.bounds
	w := p.workers
	nnz := int64(m.NNZ())
	b[0] = 0
	for i := 1; i < w; i++ {
		target := int(nnz * int64(i) / int64(w))
		r := sort.SearchInts(m.rowPtr, target)
		if r < b[i-1] {
			r = b[i-1]
		}
		if r > m.rows {
			r = m.rows
		}
		b[i] = r
	}
	b[w] = m.rows
}

// dispatch fans the prepared job out to every worker and waits for all of
// them. The channel operations publish the job fields to the workers and
// their writes back to the caller (happens-before in both directions).
func (p *Pool) dispatch() {
	for i := 0; i < p.workers; i++ {
		p.cmd <- i
	}
	for i := 0; i < p.workers; i++ {
		<-p.done
	}
	j := p.job
	j.kind, j.m, j.y, j.x, j.fn = jobNone, nil, nil, nil, nil
	j.ys, j.xs = nil, nil
}

// MulVec computes y = A·x over the team: rows are partitioned nnz-
// balanced, each y[r] is produced by exactly one worker as the same
// serial per-row reduction the scalar loop performs, so the result is
// bit-identical to the serial kernel regardless of worker count.
// Each dispatch also bumps the pool's cumulative kernel counters (see
// Stats) — two atomic adds and a time.Since, no allocation, so the
// accounting rides the hot path for free; a nil pool is unaccounted.
func (p *Pool) MulVec(m *CSR, y, x []float64) {
	if len(x) != m.cols || len(y) != m.rows {
		panic("spmat: MulVec dimension mismatch")
	}
	if p == nil {
		m.MulVec(y, x)
		return
	}
	start := time.Now()
	if p.serialFor(m) {
		m.MulVec(y, x)
	} else {
		p.rowBounds(m)
		j := p.job
		j.kind, j.m, j.y, j.x = jobMulVec, m, y, x
		p.dispatch()
	}
	p.countKernel(true, m.NNZ(), start)
}

// MulVecs computes ys[b] = A·xs[b] for k column-packed right-hand sides
// in one blocked traversal of the matrix: rows are partitioned with the
// same nnz-balanced bounds as MulVec, and each worker streams its rows'
// stored entries once, advancing all k vectors per entry load. Every
// ys[b][r] is the same serial per-row reduction MulVec performs, so the
// result is bit-identical to k serial MulVec calls regardless of worker
// count or blocking, and race-clean: workers write disjoint row ranges of
// every output vector. Counts k SpMVs over k·nnz entries in Stats.
// ys[b] must not alias xs[c] for any b, c.
func (p *Pool) MulVecs(m *CSR, ys, xs [][]float64) {
	if len(ys) != len(xs) {
		panic("spmat: MulVecs vector count mismatch")
	}
	k := len(xs)
	if k == 0 {
		return
	}
	for b := 0; b < k; b++ {
		if len(xs[b]) != m.cols || len(ys[b]) != m.rows {
			panic("spmat: MulVecs dimension mismatch")
		}
	}
	if p == nil {
		m.mulVecsRange(ys, xs, 0, m.rows)
		return
	}
	start := time.Now()
	if p.serialFor(m) {
		m.mulVecsRange(ys, xs, 0, m.rows)
	} else {
		p.rowBounds(m)
		j := p.job
		j.kind, j.m, j.ys, j.xs = jobMulVecs, m, ys, xs
		p.dispatch()
	}
	p.countKernels(true, k, k*m.NNZ(), start)
}

// VecMulT computes y = x·A like VecMul, but the parallel gather runs over
// the caller-supplied transpose t instead of A's lazily cached one. The
// refreshable multigrid path needs this: after an in-place value refresh
// of A, a previously materialized cache A.T() would be stale, so the
// solver keeps (and refreshes) its own transpose and passes it here. With
// t equal in value to A's transpose this is numerically identical to
// VecMul at the same worker count.
func (p *Pool) VecMulT(m, t *CSR, y, x []float64) {
	if p == nil || p.serialFor(m) {
		p.VecMul(m, y, x)
		return
	}
	p.MulVec(t, y, x)
}

// VecMul computes y = x·A, the Markov power step η' = η·P. The serial
// kernel scatters along rows; scattering from concurrent rows would race
// on y, so the parallel path instead gathers over the lazily cached
// transpose: (x·A)ⱼ = (Aᵀ·x)ⱼ, a conflict-free row-parallel reduction.
// The first parallel call on a matrix pays one Transpose; every later
// call reuses it. Gather and scatter sum each y[j] in different orders,
// so parallel and serial results agree to rounding (≲1e−15 relative),
// not bitwise; for a fixed worker count results are deterministic.
func (p *Pool) VecMul(m *CSR, y, x []float64) {
	if len(x) != m.rows || len(y) != m.cols {
		panic("spmat: VecMul dimension mismatch")
	}
	if p == nil {
		m.VecMul(y, x)
		return
	}
	if p.serialFor(m) {
		start := time.Now()
		m.VecMul(y, x)
		p.countKernel(true, m.NNZ(), start)
		return
	}
	// The delegated transpose product counts itself in MulVec.
	p.MulVec(m.T(), y, x)
}

// RunRows invokes fn over an nnz-balanced partition of m's rows:
// fn(part, lo, hi) handles rows [lo, hi) as partition member part, with
// part < Workers(). fn must be race-free across row ranges — writes
// confined to its rows plus per-part slots indexed by part (the partial-
// sum pattern for deterministic reductions: accumulate per part, then
// combine serially in part order). Serial pools and matrices below
// ParallelCutoff invoke fn(0, 0, rows) on the calling goroutine; callers
// combining partials must therefore zero all Workers() slots first.
func (p *Pool) RunRows(m *CSR, fn func(part, lo, hi int)) {
	if p == nil {
		fn(0, 0, m.rows)
		return
	}
	start := time.Now()
	if p.serialFor(m) {
		fn(0, 0, m.rows)
	} else {
		p.rowBounds(m)
		j := p.job
		j.kind, j.fn = jobRows, fn
		p.dispatch()
	}
	p.countKernel(false, m.NNZ(), start)
}
