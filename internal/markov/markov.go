// Package markov provides discrete-time Markov chain analysis over sparse
// transition probability matrices: structural classification (reachability,
// irreducibility, period), classical stationary-distribution solvers
// (power, Jacobi, Gauss–Seidel, GMRES), and the state-function statistics
// the paper derives from the stationary vector (expectations,
// autocorrelations and their spectra).
//
// The multilevel aggregation solver that accelerates these classical
// iterations lives in internal/multigrid; the subtraction-free direct GTH
// solve lives in internal/spmat.
package markov

import (
	"context"
	"errors"
	"fmt"
	"math"

	"cdrstoch/internal/obs"
	"cdrstoch/internal/spmat"
)

// Chain is a finite discrete-time Markov chain over an abstract
// transition operator: explicit CSR chains (New) carry the matrix and
// support every solver and structural analysis; matrix-free chains
// (NewOperator) carry only the operator and run the operator-capable
// iterations.
type Chain struct {
	p  *spmat.CSR // non-nil only for the explicit backend
	op Operator   // always non-nil; equals p for explicit chains
	// opsPerMul is the matrix-free backend's per-product work estimate
	// for cost accounting; 0 when the backend does not report one.
	opsPerMul int
}

// New validates P as a row-stochastic matrix and wraps it in a Chain.
func New(p *spmat.CSR) (*Chain, error) {
	if err := p.CheckStochastic(1e-9); err != nil {
		return nil, err
	}
	return &Chain{p: p, op: p}, nil
}

// P returns the transition probability matrix; nil for a matrix-free
// chain (NewOperator), whose transitions exist only through Operator.
func (c *Chain) P() *spmat.CSR { return c.p }

// Operator returns the chain's transition operator (the CSR itself for
// explicit chains).
func (c *Chain) Operator() Operator { return c.op }

// N returns the number of states.
func (c *Chain) N() int {
	n, _ := c.op.Dims()
	return n
}

// transpose returns Pᵀ through the matrix-owned cache (spmat.CSR.T): the
// column-sweep solvers here and the parallel gather kernels share one
// transpose per matrix. Safe because a Chain's matrix is never mutated.
// Only the explicit backend has a transpose; operator-backed chains must
// never reach here (their solvers use the splitting identity
// Σ_{j≠i} P_ji x_j = (x·P)_i − P_ii·x_i instead).
func (c *Chain) transpose() *spmat.CSR {
	if c.p == nil {
		panic("markov: transpose requires an explicit CSR backend")
	}
	return c.p.T()
}

// Uniform returns the uniform distribution over the chain's states.
func (c *Chain) Uniform() []float64 {
	n := c.N()
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	return x
}

// Step advances a distribution one step: returns x·P in dst (allocated when
// nil) and the destination slice.
func (c *Chain) Step(dst, x []float64) []float64 {
	if dst == nil {
		dst = make([]float64, c.N())
	}
	c.op.VecMul(dst, x)
	return dst
}

// Residual returns ‖x·P − x‖₁, the stationarity defect of x.
func (c *Chain) Residual(x []float64) float64 {
	return c.residualInto(nil, make([]float64, len(x)), x)
}

// residualInto computes ‖x·P − x‖₁ using scratch y and the given team —
// the allocation-free form the sweep loops call once per iteration.
func (c *Chain) residualInto(pool *spmat.Pool, y, x []float64) float64 {
	c.vecMul(pool, y, x)
	r := 0.0
	for i := range x {
		r += math.Abs(y[i] - x[i])
	}
	return r
}

// Workspace holds the buffers and the parallel worker team an iterative
// solve reuses across sweeps — and, when passed via Options.Ws, across
// solves. The zero value is ready to use. The service path keeps
// Workspaces in a sync.Pool so concurrent requests share teams and
// buffers instead of rebuilding them per request.
type Workspace struct {
	// Pool is the sparse-kernel worker team. When nil, the solver
	// installs one sized by Options.Workers on first use; the workspace
	// keeps it for later solves.
	Pool *spmat.Pool
	y    []float64 // iterate/product buffer
	r    []float64 // residual scratch
}

// ensure sizes the buffers for an n-state solve, reusing capacity.
func (w *Workspace) ensure(n int) {
	if cap(w.y) < n {
		w.y = make([]float64, n)
		w.r = make([]float64, n)
	}
	w.y = w.y[:n]
	w.r = w.r[:n]
}

// team returns the workspace's pool, creating one of the given width
// (0 = GOMAXPROCS, 1 = serial) on first use.
func (w *Workspace) team(workers int) *spmat.Pool {
	if w.Pool == nil {
		w.Pool = spmat.NewPool(workers)
	}
	return w.Pool
}

// normalize rescales x to unit 1-norm in place; returns an error when the
// mass vanished (a symptom of a defective iteration).
func normalize(x []float64) error {
	s := 0.0
	for _, v := range x {
		s += v
	}
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return errors.New("markov: iterate lost probability mass")
	}
	inv := 1 / s
	for i := range x {
		x[i] *= inv
	}
	return nil
}

// Options configures an iterative stationary solve.
type Options struct {
	// Tol is the convergence threshold on ‖xP − x‖₁. Default 1e-12.
	Tol float64
	// MaxIter bounds the iteration count. Default 100000.
	MaxIter int
	// X0 is the initial distribution; uniform when nil.
	X0 []float64
	// Damping is the power-iteration damping factor α in
	// x ← α·xP + (1−α)·x; 1 (undamped) by default. Damping below 1 makes
	// the iteration converge on periodic chains.
	Damping float64
	// Ctx, when non-nil, is checked after every sweep: a canceled or
	// expired context stops the solve and the solver returns a
	// partial-progress error wrapping ctx.Err(). Its run handle
	// (obs.Run), if any, receives a span around the solve and one "iter"
	// event per sweep, is charged the sweeps and kernel work, and fires
	// the markov.sweep fault point. Nil never cancels.
	Ctx context.Context
	// Workers is the width of the parallel worker team for the sparse
	// products of the sweep: 0 selects runtime.GOMAXPROCS, 1 forces
	// serial; matrices below spmat.ParallelCutoff run serially
	// regardless of the setting. Ignored when Ws carries a live Pool.
	Workers int
	// Ws supplies reusable buffers and the worker team. Passing the same
	// Workspace to consecutive solves removes the per-solve buffer and
	// team setup; nil uses a private workspace.
	Ws *Workspace
}

// workspace returns the caller-supplied workspace or a private one,
// sized for n states.
func (o Options) workspace(n int) *Workspace {
	ws := o.Ws
	if ws == nil {
		ws = &Workspace{}
	}
	ws.ensure(n)
	return ws
}

// stopped wraps the error a sweep's probe returned with the solve's
// partial progress.
func stopped(name string, res Result, err error) error {
	return fmt.Errorf("markov: %s solve stopped after %d sweeps (residual %.3e): %w",
		name, res.Iterations, res.Residual, err)
}

func (o Options) withDefaults(n int) Options {
	if o.Tol <= 0 {
		o.Tol = 1e-12
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 100000
	}
	if o.Damping <= 0 || o.Damping > 1 {
		o.Damping = 1
	}
	return o
}

// Result reports the outcome of an iterative stationary solve.
type Result struct {
	// Pi is the computed stationary distribution.
	Pi []float64
	// Iterations is the number of sweeps performed.
	Iterations int
	// Residual is the final ‖πP − π‖₁.
	Residual float64
	// Converged reports whether Residual ≤ Tol was reached.
	Converged bool
}

func (r Result) String() string {
	return fmt.Sprintf("iter=%d residual=%.3e converged=%v", r.Iterations, r.Residual, r.Converged)
}

func (c *Chain) initial(opt Options) ([]float64, error) {
	if opt.X0 == nil {
		return c.Uniform(), nil
	}
	if len(opt.X0) != c.N() {
		return nil, fmt.Errorf("markov: X0 length %d, want %d", len(opt.X0), c.N())
	}
	x := make([]float64, len(opt.X0))
	copy(x, opt.X0)
	if err := normalize(x); err != nil {
		return nil, err
	}
	return x, nil
}

// StationaryPower computes the stationary distribution by (optionally
// damped) power iteration x ← α·xP + (1−α)·x. This is the paper's baseline
// "Gauss–Jacobi" smoother; the multigrid levels smooth with Gauss–Seidel.
func (c *Chain) StationaryPower(opt Options) (Result, error) {
	opt = opt.withDefaults(c.N())
	ws := opt.workspace(c.N())
	pool := ws.team(opt.Workers)
	x, err := c.initial(opt)
	if err != nil {
		return Result{}, err
	}
	y := ws.y
	res := Result{}
	probe := obs.Begin(opt.Ctx, "power", obs.Sweeps, "markov.sweep", pool)
	defer probe.End(obs.Work{})
	for it := 1; it <= opt.MaxIter; it++ {
		c.vecMul(pool, y, x)
		r := 0.0
		a := opt.Damping
		for i := range x {
			r += math.Abs(y[i] - x[i])
			x[i] = a*y[i] + (1-a)*x[i]
		}
		if err := normalize(x); err != nil {
			return Result{}, err
		}
		res.Iterations = it
		res.Residual = r
		if err := probe.Iter(it, r); err != nil {
			res.Pi = x
			return res, stopped("power", res, err)
		}
		if r <= opt.Tol {
			res.Converged = true
			break
		}
	}
	res.Pi = x
	return res, nil
}

// StationaryJacobi computes the stationary distribution with the Jacobi
// splitting of (I − Pᵀ)x = 0: x_i ← Σ_{j≠i} P_ji x_j / (1 − P_ii).
// Because the system is singular, the plain Jacobi iteration matrix can
// carry an eigenvalue at −1 and oscillate; Options.Damping < 1 (weighted
// Jacobi / JOR) restores convergence and is recommended.
func (c *Chain) StationaryJacobi(opt Options) (Result, error) {
	opt = opt.withDefaults(c.N())
	diag := c.op.Diag()
	for i, d := range diag {
		if d >= 1 {
			return Result{}, fmt.Errorf("markov: absorbing state %d, Jacobi splitting undefined", i)
		}
	}
	if c.p == nil {
		return c.stationaryJacobiOp(opt, diag)
	}
	ws := opt.workspace(c.N())
	pool := ws.team(opt.Workers)
	pt := c.transpose()
	x, err := c.initial(opt)
	if err != nil {
		return Result{}, err
	}
	orig := x
	y := make([]float64, len(x))
	res := Result{}
	// The Jacobi update reads only x and writes y[i] for its own rows, so
	// the sweep is row-parallel over Pᵀ with bit-identical results at any
	// team width. The kernel struct and its method value are built once;
	// the sweep loop then allocates nothing.
	kern := &jacobiSweep{pt: pt, diag: diag, a: opt.Damping}
	sweep := kern.rows
	probe := obs.Begin(opt.Ctx, "jacobi", obs.Sweeps, "markov.sweep", pool)
	defer probe.End(obs.Work{})
	for it := 1; it <= opt.MaxIter; it++ {
		kern.x, kern.y = x, y
		pool.RunRows(pt, sweep)
		x, y = y, x
		if err := normalize(x); err != nil {
			return Result{}, err
		}
		res.Iterations = it
		res.Residual = c.residualInto(pool, ws.r, x)
		if err := probe.Iter(it, res.Residual); err != nil {
			res.Pi = x
			return res, stopped("jacobi", res, err)
		}
		if res.Residual <= opt.Tol {
			res.Converged = true
			break
		}
	}
	// The buffer swap may leave the final iterate in y's storage; return
	// the slice the caller cannot see aliased elsewhere.
	if &x[0] != &orig[0] {
		copy(orig, x)
		x = orig
	}
	res.Pi = x
	return res, nil
}

// jacobiSweep is the row-parallel Jacobi kernel: one update of
// y_i ← a·Σ_{j≠i} Pᵀ_ij x_j / (1 − P_ii) + (1−a)·x_i over a row range.
type jacobiSweep struct {
	pt   *spmat.CSR
	diag []float64
	x, y []float64
	a    float64
}

func (s *jacobiSweep) rows(_, lo, hi int) {
	a := s.a
	for i := lo; i < hi; i++ {
		cols, vals := s.pt.Row(i) // row i of Pᵀ = column i of P
		sum := 0.0
		for k, j := range cols {
			if j != i {
				sum += vals[k] * s.x[j]
			}
		}
		s.y[i] = a*sum/(1-s.diag[i]) + (1-a)*s.x[i]
	}
}

// stationaryJacobiOp is the Jacobi sweep for operator-backed chains. A
// matrix-free backend has no transpose, but none is needed: the off-
// diagonal column sum the splitting wants is recovered from the full
// product, Σ_{j≠i} P_ji·x_j = (x·P)_i − P_ii·x_i, so one VecMul plus the
// cached diagonal drives each sweep. The update reads x[i] and y[i] only
// at index i, so it runs in place on x.
func (c *Chain) stationaryJacobiOp(opt Options, diag []float64) (Result, error) {
	ws := opt.workspace(c.N())
	pool := ws.team(opt.Workers)
	x, err := c.initial(opt)
	if err != nil {
		return Result{}, err
	}
	y := ws.y
	res := Result{}
	a := opt.Damping
	probe := obs.Begin(opt.Ctx, "jacobi", obs.Sweeps, "markov.sweep", pool)
	defer probe.End(obs.Work{})
	for it := 1; it <= opt.MaxIter; it++ {
		c.vecMul(pool, y, x)
		for i := range x {
			x[i] = a*(y[i]-diag[i]*x[i])/(1-diag[i]) + (1-a)*x[i]
		}
		if err := normalize(x); err != nil {
			return Result{}, err
		}
		res.Iterations = it
		res.Residual = c.residualInto(pool, ws.r, x)
		if err := probe.Iter(it, res.Residual); err != nil {
			res.Pi = x
			return res, stopped("jacobi", res, err)
		}
		if res.Residual <= opt.Tol {
			res.Converged = true
			break
		}
	}
	res.Pi = x
	return res, nil
}

// StationaryGaussSeidel computes the stationary distribution with forward
// Gauss–Seidel sweeps on (I − Pᵀ)x = 0.
func (c *Chain) StationaryGaussSeidel(opt Options) (Result, error) {
	if c.p == nil {
		return Result{}, errors.New("markov: Gauss-Seidel requires an explicit CSR backend")
	}
	opt = opt.withDefaults(c.N())
	ws := opt.workspace(c.N())
	pool := ws.team(opt.Workers)
	pt := c.transpose()
	diag := c.p.Diag()
	for i, d := range diag {
		if d >= 1 {
			return Result{}, fmt.Errorf("markov: absorbing state %d, Gauss-Seidel splitting undefined", i)
		}
	}
	x, err := c.initial(opt)
	if err != nil {
		return Result{}, err
	}
	res := Result{}
	n := c.N()
	probe := obs.Begin(opt.Ctx, "gauss-seidel", obs.Sweeps, "markov.sweep", pool)
	defer probe.End(obs.Work{})
	for it := 1; it <= opt.MaxIter; it++ {
		for i := 0; i < n; i++ {
			cols, vals := pt.Row(i)
			s := 0.0
			for k, j := range cols {
				if j != i {
					s += vals[k] * x[j]
				}
			}
			x[i] = s / (1 - diag[i])
		}
		if err := normalize(x); err != nil {
			return Result{}, err
		}
		res.Iterations = it
		res.Residual = c.residualInto(pool, ws.r, x)
		if err := probe.Iter(it, res.Residual); err != nil {
			res.Pi = x
			return res, stopped("gauss-seidel", res, err)
		}
		if res.Residual <= opt.Tol {
			res.Converged = true
			break
		}
	}
	res.Pi = x
	return res, nil
}

// StationaryDirect computes the stationary distribution with the dense
// subtraction-free GTH algorithm. Intended for small chains (it densifies
// the TPM); it is exact to rounding and preserves tiny tail masses.
func (c *Chain) StationaryDirect() ([]float64, error) {
	if c.p == nil {
		return nil, errors.New("markov: direct GTH solve requires an explicit CSR backend")
	}
	return spmat.StationaryGTHCSR(c.p)
}
