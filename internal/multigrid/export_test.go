package multigrid

import (
	"testing"

	"cdrstoch/internal/kron"
	"cdrstoch/internal/lump"
	"cdrstoch/internal/spmat"
)

// This file opens the implicit level's kernels and the workspace figure to
// the external tests in segment_test.go and memory_test.go, which build
// the Figure 5 models through core (core imports multigrid, so those tests
// cannot live in this package).

// KronTestDescriptor is kronTestDescriptor for the external tests.
func KronTestDescriptor(t *testing.T, seed int64, phase int) *kron.Descriptor {
	return kronTestDescriptor(t, seed, phase)
}

// SmoothFine runs one smoothing sweep of level 0 on x.
func (s *Solver) SmoothFine(x []float64) { s.smooth(s.levels[0], x, 1) }

// MulFine sets y = x·P through level 0: the per-cycle residual's product.
func (s *Solver) MulFine(y, x []float64) { s.fineProduct(y, x) }

// PointSweep runs one relaxed point Gauss–Seidel sweep over pt, the
// transpose of a TPM, on x.
func (s *Solver) PointSweep(pt *spmat.CSR, x []float64) { s.gaussSeidel(pt, x, 1) }

// RestrictFine restricts x from the implicit level 0 and returns level 1's
// transpose, whose values the restriction rewrote.
func (s *Solver) RestrictFine(x []float64) *spmat.CSR {
	lv, next := s.levels[0], s.levels[1]
	lv.imp.restrict(x, next.pt, lv.xc)
	return next.pt
}

// WorkspaceBytes is the figure the solver reports as its workspace.
func (s *Solver) WorkspaceBytes() int64 { return s.workspaceBytes() }

// RestrictFineRefreshed is the oracle of NewKron's routing of level 1's
// destinations through its transpose permutation: the restriction as it
// ran while level 1 was also held as a CSR matrix. It restricts x into a
// fresh level 1's CSR values through the unrouted destinations, with the
// restriction's loops copied unchanged, then refreshes a transpose
// through its permutation and returns that transpose.
func RestrictFineRefreshed(d *kron.Descriptor, fold []*lump.Partition, x []float64) (*spmat.CSR, error) {
	im, err := newImplicitLevel(d, fold)
	if err != nil {
		return nil, err
	}
	pc, err := im.coarsePattern()
	if err != nil {
		return nil, err
	}
	pt, perm := pc.TransposeWithPerm()
	vals := pc.RawValues()
	clear(vals)
	m, mc := im.m, im.mc
	clear(im.mass)
	for s := range im.segs {
		ms := im.mass[s*mc : (s+1)*mc]
		for i, v := range x[s*m : (s+1)*m] {
			ms[im.agg[i]] += v
		}
	}
	for s := range im.segs {
		ms := im.mass[s*mc : (s+1)*mc]
		for i, v := range x[s*m : (s+1)*m] {
			if I := im.agg[i]; ms[I] > 0 {
				im.w[i] = v / ms[I]
			} else {
				im.w[i] = 1 / float64(im.count[I])
			}
		}
		links := im.out[im.outPtr[s]:im.outPtr[s+1]]
		for k := 0; k < len(links); {
			t := links[k].term
			acc, loc := im.acc[:len(im.locCol[t])], im.loc[t]
			clear(acc)
			q := 0
			for i, wi := range im.w {
				_, pv := im.phase[t].Row(i)
				if wi != 0 {
					for kk, v := range pv {
						acc[loc[q+kk]] += wi * v
					}
				}
				q += len(pv)
			}
			for ; k < len(links) && links[k].term == t; k++ {
				l := &links[k]
				for e, d := range im.dest[l.dest : l.dest+len(acc)] {
					vals[d] += l.coef * acc[e]
				}
			}
		}
	}
	pc.RefreshTranspose(pt, perm)
	return pt, nil
}
