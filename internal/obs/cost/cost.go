// Package cost is the per-solve cost accounting and convergence audit
// layer: every solve — a synchronous HTTP handler, an async job, one
// point of a sweep, or a CLI run — may carry a Meter in its run handle
// (obs.Run) and ends with a structured SolveReport stating what the
// solve actually cost (wall and CPU time, solver cycles and sweeps,
// sparse-kernel operation counts and effective bandwidth, per-level
// multigrid work, residual history, workspace bytes, peak goroutines).
//
// The package follows internal/obs's zero-cost-when-disabled contract: a
// nil *Meter is a valid no-op and every method tolerates it. Solvers
// never call the meter directly: their probes feed it one residual per
// iteration and one obs.Work when they end. Reports flow three ways in
// the service: into the progress tracker's bounded tail of finished
// rows (obs/progress), which backs GET /debug/solves, the
// X-Solve-Cost-* response headers and the async JobView; into
// per-endpoint histograms in the obs Registry (and thus /metrics, JSON
// and Prometheus); and into an optional obs.JSONL sink for offline
// analysis.
package cost

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cdrstoch/internal/obs"
)

// PoolCost is the sparse-kernel operation count of one solve: the sum of
// its probes' spmat.PoolStats deltas.
type PoolCost struct {
	// SpMVs counts sparse matrix–vector products (MulVec and VecMul).
	SpMVs int64 `json:"spmvs"`
	// RowSweeps counts RunRows dispatches (row-parallel solver sweeps).
	RowSweeps int64 `json:"row_sweeps"`
	// NNZ is the total stored entries processed across all kernels.
	NNZ int64 `json:"nnz_processed"`
	// KernelNS is the wall time spent inside the kernels.
	KernelNS int64 `json:"kernel_ns"`
}

// SolveReport is the structured cost record of one solve. Zero-valued
// fields are omitted from the JSON encoding where that cannot mislead
// (a residual of 0 is "not recorded", not "converged to zero").
type SolveReport struct {
	// Trace is the request-scoped trace ID the solve ran under; the same
	// ID correlates the report with flight-recorder events and response
	// headers. Parent is the root span (request or job ID).
	Trace  string `json:"trace_id,omitempty"`
	Parent string `json:"parent,omitempty"`
	// Endpoint labels the code path ("analyze", "slip", "cli", ...);
	// SpecKey is the content hash of the solved spec.
	Endpoint string `json:"endpoint,omitempty"`
	SpecKey  string `json:"spec_key,omitempty"`
	// Start is when the meter was created; WallNS the wall-clock span to
	// Finish; CPUNS the process CPU time (user+system) consumed over that
	// span. CPU time is a process-wide delta: concurrent solves
	// over-attribute each other's cycles, which is the honest upper bound
	// a scheduler needs (documented, not hidden).
	Start  time.Time `json:"start"`
	WallNS int64     `json:"wall_ns"`
	CPUNS  int64     `json:"cpu_ns"`
	// PeakGoroutines is the highest runtime.NumGoroutine() observed at
	// the meter's sample points (solve start, stage boundaries, finish).
	PeakGoroutines int `json:"peak_goroutines,omitempty"`
	// States/NNZ/MatrixBytes describe the finest-level matrix;
	// WorkspaceBytes is the heap the solver itself holds beyond it
	// (coarse transposes, lumping tables, iterate buffers), the largest
	// any of the solve's probes reported.
	States         int   `json:"states,omitempty"`
	NNZ            int   `json:"nnz,omitempty"`
	MatrixBytes    int64 `json:"matrix_bytes,omitempty"`
	WorkspaceBytes int64 `json:"workspace_bytes,omitempty"`
	// Cycles counts multigrid cycles; Sweeps counts fixed-point sweeps
	// (power/Jacobi/Gauss–Seidel/quasi-stationary); Restarts counts GMRES
	// restarts.
	Cycles   int64 `json:"cycles,omitempty"`
	Sweeps   int64 `json:"sweeps,omitempty"`
	Restarts int64 `json:"restarts,omitempty"`
	// FinalResidual is the last recorded convergence measure;
	// ResidualTail the most recent per-iteration residuals (one per
	// cycle, sweep or restart), oldest first, capped at ResidualTailMax.
	FinalResidual float64   `json:"final_residual,omitempty"`
	ResidualTail  []float64 `json:"residual_tail,omitempty"`
	// Levels attributes multigrid work per level, finest first.
	Levels []obs.LevelStat `json:"levels,omitempty"`
	// Pool is the sparse-kernel operation delta; SpMVGBps the effective
	// kernel bandwidth estimate derived from it (16 bytes per stored
	// entry: the value and its column index).
	Pool     PoolCost `json:"pool"`
	SpMVGBps float64  `json:"spmv_gbps,omitempty"`
	// Cached is true on reports replayed for a cache hit (the solve that
	// produced the body happened earlier); fresh solve reports are false.
	Cached bool `json:"cached,omitempty"`
	// WarmStarted is true when the solve's initial iterate was a
	// neighboring sweep point's solution (or an extrapolation of two)
	// rather than the uniform vector — the continuation path of the sweep
	// engine. Consumers attributing latency differences across otherwise
	// identical specs should check this first.
	WarmStarted bool `json:"warm_started,omitempty"`
	// Err is the failure, when the solve did not finish cleanly.
	Err string `json:"error,omitempty"`
}

// WallMS and CPUMS return the durations in fractional milliseconds, the
// unit the response headers and cost tables use.
func (r SolveReport) WallMS() float64 { return float64(r.WallNS) / 1e6 }

// CPUMS returns the CPU time in fractional milliseconds.
func (r SolveReport) CPUMS() float64 { return float64(r.CPUNS) / 1e6 }

// ResidualTailMax bounds the residual history retained per report.
const ResidualTailMax = 16

// Meter accumulates the cost of one solve. Construct with NewMeter, put
// it in the solve's obs.Run, and call Finish once to produce the
// SolveReport. All recording methods are safe for concurrent use and
// tolerate a nil receiver.
type Meter struct {
	start time.Time
	cpu0  time.Duration

	peakG atomic.Int64
	warm  atomic.Bool

	mu       sync.Mutex
	cycles   int64
	sweeps   int64
	restarts int64
	wsBytes  int64
	finalRes float64
	hasRes   bool
	tail     [ResidualTailMax]float64
	tailN    uint64 // total residuals ever recorded (ring write cursor)
	levels   []obs.LevelStat
	pool     PoolCost
}

// NewMeter starts a meter: wall clock, process CPU baseline, and a first
// goroutine sample.
func NewMeter() *Meter {
	m := &Meter{start: time.Now(), cpu0: ProcessCPU()}
	m.SampleGoroutines()
	return m
}

// SampleGoroutines records the current goroutine count into the running
// peak. Call at stage boundaries; never inside iteration loops.
func (m *Meter) SampleGoroutines() {
	if m == nil {
		return
	}
	g := int64(runtime.NumGoroutine())
	for {
		cur := m.peakG.Load()
		if g <= cur || m.peakG.CompareAndSwap(cur, g) {
			return
		}
	}
}

// MarkWarmStarted flags the solve as warm-started (non-uniform initial
// iterate from a neighboring sweep point).
func (m *Meter) MarkWarmStarted() {
	if m == nil {
		return
	}
	m.warm.Store(true)
}

// AddResidual records one convergence measurement: it becomes the
// current final residual and joins the bounded residual tail.
func (m *Meter) AddResidual(r float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.finalRes = r
	m.hasRes = true
	m.tail[m.tailN%ResidualTailMax] = r
	m.tailN++
	m.mu.Unlock()
}

// AddWork adds one probe's tally: its iterations and kernel delta are
// summed, its per-level visits and smoothing time summed level by
// level, and its workspace kept only if it is the largest yet — a
// solver that solves twice under one meter holds its workspace once.
func (m *Meter) AddWork(w obs.Work) {
	if m == nil {
		return
	}
	m.SampleGoroutines()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cycles += w.Cycles
	m.sweeps += w.Sweeps
	m.restarts += w.Restarts
	m.wsBytes = max(m.wsBytes, w.Workspace)
	m.pool.SpMVs += w.Pool.SpMVs
	m.pool.RowSweeps += w.Pool.RowSweeps
	m.pool.NNZ += w.Pool.NNZ
	m.pool.KernelNS += w.Pool.KernelNS
	for _, l := range w.Levels {
		for len(m.levels) <= l.Level {
			m.levels = append(m.levels, obs.LevelStat{Level: len(m.levels)})
		}
		acc := &m.levels[l.Level]
		acc.Size = l.Size
		acc.Visits += l.Visits
		acc.SmoothNS += l.SmoothNS
	}
}

// spmvBytesPerNNZ is the traffic estimate per stored entry of a sparse
// product: the 8-byte value plus the 8-byte column index. Vector traffic
// is excluded — for the banded TPMs here it is second-order.
const spmvBytesPerNNZ = 16

// Finish closes the meter and assembles the report. The caller fills the
// identity fields (Trace, Endpoint, SpecKey) and matrix dimensions it
// knows. Finish may be called on a nil meter (zero report).
func (m *Meter) Finish() SolveReport {
	if m == nil {
		return SolveReport{}
	}
	m.SampleGoroutines()
	wall := time.Since(m.start)
	cpu := ProcessCPU() - m.cpu0
	if cpu < 0 {
		cpu = 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	rep := SolveReport{
		Start:          m.start,
		WallNS:         wall.Nanoseconds(),
		CPUNS:          cpu.Nanoseconds(),
		PeakGoroutines: int(m.peakG.Load()),
		WorkspaceBytes: m.wsBytes,
		Cycles:         m.cycles,
		Sweeps:         m.sweeps,
		Restarts:       m.restarts,
		WarmStarted:    m.warm.Load(),
		Pool:           m.pool,
		Levels:         append([]obs.LevelStat(nil), m.levels...),
	}
	if m.hasRes {
		rep.FinalResidual = m.finalRes
		held := m.tailN
		if held > ResidualTailMax {
			held = ResidualTailMax
		}
		rep.ResidualTail = make([]float64, held)
		for i := uint64(0); i < held; i++ {
			rep.ResidualTail[i] = m.tail[(m.tailN-held+i)%ResidualTailMax]
		}
	}
	if m.pool.KernelNS > 0 {
		rep.SpMVGBps = float64(m.pool.NNZ) * spmvBytesPerNNZ / float64(m.pool.KernelNS)
	}
	return rep
}
