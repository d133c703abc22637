package multigrid

import (
	"testing"

	"cdrstoch/internal/kron"
	"cdrstoch/internal/spmat"
)

// This file opens the implicit level's kernels to the external tests in
// segment_test.go, which build the Figure 5 models through core (core
// imports multigrid, so those tests cannot live in this package).

// KronTestDescriptor is kronTestDescriptor for the external tests.
func KronTestDescriptor(t *testing.T, seed int64, phase int) *kron.Descriptor {
	return kronTestDescriptor(t, seed, phase)
}

// SmoothFine runs one smoothing sweep of level 0 on x.
func (s *Solver) SmoothFine(x []float64) { s.smooth(s.levels[0], x, 1) }

// PointSweep runs one relaxed point Gauss–Seidel sweep over pt, the
// transpose of a TPM, on x.
func (s *Solver) PointSweep(pt *spmat.CSR, x []float64) { s.gaussSeidel(pt, x, 1) }

// RestrictFine restricts x from the implicit level 0 and returns level 1's
// matrix, whose values the restriction rewrote.
func (s *Solver) RestrictFine(x []float64) *spmat.CSR {
	lv, next := s.levels[0], s.levels[1]
	lv.imp.restrict(x, next.p, lv.xc)
	return next.p
}
