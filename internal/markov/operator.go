package markov

import (
	"fmt"
	"math"
	"time"

	"cdrstoch/internal/spmat"
)

// Operator is the abstract transition-matrix surface the iterative
// solvers run on: the row action y = P·x, the distribution action
// y = x·P, and the two structural vectors the splittings and the
// stochasticity check need. Two backends satisfy it today — the explicit
// *spmat.CSR and the matrix-free kron.Descriptor (structurally; neither
// package imports the other) — so the same power, Jacobi and GMRES loops
// solve chains whose product matrix was never materialized.
type Operator interface {
	// Dims returns the (square) matrix dimensions.
	Dims() (r, c int)
	// MulVec computes y = P·x.
	MulVec(y, x []float64)
	// VecMul computes y = x·P.
	VecMul(y, x []float64)
	// Diag returns a fresh copy of the diagonal.
	Diag() []float64
	// RowSums returns fresh per-row sums (≈1 for a stochastic operator).
	RowSums() []float64
}

// The explicit backend is the CSR itself.
var _ Operator = (*spmat.CSR)(nil)

// opsEstimator lets a matrix-free backend report the per-product work
// estimate the cost accounting attributes to each implicit SpMV.
type opsEstimator interface {
	OpsPerMul() int64
}

// NewOperator wraps any Operator backend in a Chain. An explicit
// *spmat.CSR takes the New path (full stochasticity validation and
// access to the transpose-based solvers); other backends are validated
// through their row sums and support everything that only multiplies by
// P — StationaryPower, StationaryJacobi, StationaryGMRES, Step, Residual,
// the transient analyses (Evolve, ExpectedCumulative,
// SurvivalProbability, FrameErrorRate), MixingTime, and the stationary
// statistics (Autocovariance, Autocorrelation, SpectralDensity).
// The structural analyses read explicit rows and must not be called on
// a matrix-free chain; GroupInverse and the Gauss–Seidel/direct solvers
// report an error there, and P returns nil.
func NewOperator(op Operator) (*Chain, error) {
	if p, ok := op.(*spmat.CSR); ok {
		return New(p)
	}
	r, c := op.Dims()
	if r != c {
		return nil, fmt.Errorf("markov: operator is %dx%d, want square", r, c)
	}
	if r == 0 {
		return nil, fmt.Errorf("markov: empty operator")
	}
	for i, s := range op.RowSums() {
		if math.Abs(s-1) > 1e-9 {
			return nil, fmt.Errorf("markov: operator row %d sums to %v, want 1", i, s)
		}
	}
	ch := &Chain{op: op}
	if est, ok := op.(opsEstimator); ok {
		ch.opsPerMul = int(est.OpsPerMul())
	}
	return ch, nil
}

// vecMul computes y = x·P through whichever backend the chain carries:
// the pool's parallel CSR kernel for explicit chains, the operator's own
// product (accounted as one external SpMV on the pool's counters) for
// matrix-free chains. This is the one seam every solver loop multiplies
// through.
func (c *Chain) vecMul(pool *spmat.Pool, y, x []float64) {
	if c.p != nil {
		pool.VecMul(c.p, y, x)
		return
	}
	start := time.Now()
	c.op.VecMul(y, x)
	pool.CountExternal(1, c.opsPerMul, start)
}
