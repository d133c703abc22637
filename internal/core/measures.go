package core

import (
	"errors"
	"fmt"

	"cdrstoch/internal/dist"
)

// Additional performance measures beyond the headline BER: bathtub curves
// and eye opening (the standard presentation of timing margin in CDR
// datasheets, and the form in which the paper's "eye opening" input
// specification is written), phase-correction activity of the selection
// loop, the recovered-clock phase autocorrelation (the paper names the
// autocorrelation of a function on the chain as the canonical follow-on
// computation), and frame-level error statistics.

// BERAtOffset returns the bit error rate when the sampling instant is
// displaced by offset UI from the eye center: an error occurs when
// Φ + n_w leaves (−Threshold + offset, Threshold + offset].
func (m *Model) BERAtOffset(pi []float64, offset float64) float64 {
	marg := m.PhaseMarginal(pi)
	t := m.Spec.Threshold
	ber := 0.0
	for mi, p := range marg {
		if p == 0 {
			continue
		}
		phi := m.PhaseValue(mi)
		ber += p * (dist.TailBelow(m.Spec.EyeJitter, -t+offset-phi) +
			dist.TailAbove(m.Spec.EyeJitter, t+offset-phi))
	}
	return ber
}

// Bathtub evaluates the BER at n sampling offsets spanning
// (−Threshold, +Threshold) and returns the offsets and BER values — the
// classic bathtub curve whose floor is the centered BER and whose walls
// set the timing margin.
func (m *Model) Bathtub(pi []float64, n int) (offsets, ber []float64, err error) {
	if n < 3 {
		return nil, nil, errors.New("core: bathtub needs at least 3 points")
	}
	t := m.Spec.Threshold
	offsets = make([]float64, n)
	ber = make([]float64, n)
	for i := 0; i < n; i++ {
		x := -t + 2*t*float64(i)/float64(n-1)
		offsets[i] = x
		ber[i] = m.BERAtOffset(pi, x)
	}
	return offsets, ber, nil
}

// EyeOpening returns the width (in UI) of the sampling-offset window whose
// BER stays at or below target, found by bisection from the eye center
// outwards. It returns 0 when even the centered BER exceeds the target.
func (m *Model) EyeOpening(pi []float64, target float64) (float64, error) {
	if target <= 0 {
		return 0, errors.New("core: target BER must be positive")
	}
	if m.BERAtOffset(pi, 0) > target {
		return 0, nil
	}
	edge := func(dir float64) float64 {
		lo, hi := 0.0, m.Spec.Threshold
		for iter := 0; iter < 60; iter++ {
			mid := (lo + hi) / 2
			if m.BERAtOffset(pi, dir*mid) <= target {
				lo = mid
			} else {
				hi = mid
			}
		}
		return lo
	}
	return edge(+1) + edge(-1), nil
}

// CorrectionActivity reports the stationary rate of phase corrections.
type CorrectionActivity struct {
	// UpRate and DownRate are corrections per bit in each direction
	// (Up = counter overflow = retard by G; Down = advance by G).
	UpRate, DownRate float64
	// NetUIPerBit is the mean phase correction per bit in UI
	// (negative = net retard), which at equilibrium balances the n_r
	// drift.
	NetUIPerBit float64
}

// CorrectionActivity computes the stationary phase-correction rates: the
// probability per bit that the counter overflows (underflows) and steps
// the phase mux. At equilibrium the net correction cancels the mean of
// n_r — a useful model sanity check and the activity figure for the phase
// selection logic.
func (m *Model) CorrectionActivity(pi []float64) CorrectionActivity {
	var act CorrectionActivity
	topC := m.C - 1 // counter value +(L−1): next LEAD overflows
	botC := 0       // counter value −(L−1): next LAG underflows
	for d := 0; d < m.D; d++ {
		pt := m.Spec.TransProb(d)
		if pt == 0 {
			continue
		}
		for mi := 0; mi < m.M; mi++ {
			pLead, pLag, _ := m.pdProbs(m.PhaseValue(mi))
			act.UpRate += pi[m.StateIndex(d, topC, mi)] * pt * pLead
			act.DownRate += pi[m.StateIndex(d, botC, mi)] * pt * pLag
		}
	}
	act.NetUIPerBit = (act.DownRate - act.UpRate) * m.Spec.CorrectionStep
	return act
}

// PhaseAutocorrelation returns the normalized autocorrelation sequence of
// the phase error under stationarity for lags 0..maxLag — the recovered
// clock's phase memory, from which loop-bandwidth behavior can be read.
func (m *Model) PhaseAutocorrelation(pi []float64, maxLag int) ([]float64, error) {
	ch, err := m.Chain()
	if err != nil {
		return nil, err
	}
	f := make([]float64, m.NumStates())
	for i := range f {
		f[i] = m.PhaseValue(i % m.M)
	}
	return ch.Autocorrelation(pi, f, maxLag)
}

// PhaseNoiseSpectrum evaluates the one-sided power spectral density of
// the recovered clock's phase error at the given normalized frequencies
// (cycles/bit, in (0, 0.5]) — the spectral form of "specifications on the
// recovered clock jitter". maxLag truncates the underlying autocovariance
// sum and should exceed the loop's correlation time (a few counter
// periods).
func (m *Model) PhaseNoiseSpectrum(pi []float64, maxLag int, freqs []float64) ([]float64, error) {
	ch, err := m.Chain()
	if err != nil {
		return nil, err
	}
	f := make([]float64, m.NumStates())
	for i := range f {
		f[i] = m.PhaseValue(i % m.M)
	}
	return ch.SpectralDensity(pi, f, maxLag, freqs)
}

// ErrorProbVector returns the per-state bit-error probability
// P(|Φ_i + n_w| > Threshold), the event-probability input to frame-level
// (survival) analysis.
func (m *Model) ErrorProbVector() []float64 {
	t := m.Spec.Threshold
	out := make([]float64, m.NumStates())
	for i := range out {
		phi := m.PhaseValue(i % m.M)
		out[i] = dist.TailBelow(m.Spec.EyeJitter, -t-phi) +
			dist.TailAbove(m.Spec.EyeJitter, t-phi)
	}
	return out
}

// FrameErrorRate returns P(at least one bit error in a frame of frameBits
// consecutive bits), starting from the stationary ensemble pi. Unlike the
// i.i.d. approximation 1 − (1−BER)^n, this accounts for the correlation
// of errors through the loop state (errors cluster when the phase
// wanders).
func (m *Model) FrameErrorRate(pi []float64, frameBits int) (float64, error) {
	if frameBits <= 0 {
		return 0, fmt.Errorf("core: frame length %d", frameBits)
	}
	ch, err := m.Chain()
	if err != nil {
		return 0, err
	}
	return ch.FrameErrorRate(pi, m.ErrorProbVector(), frameBits)
}

// AcquisitionTime returns the number of bits needed for the loop, started
// at phase offset startPhi (counter reset, run length 0), to bring the
// total-variation distance to the stationary distribution below eps.
func (m *Model) AcquisitionTime(pi []float64, startPhi float64, eps float64, maxBits int) (int, error) {
	ch, err := m.Chain()
	if err != nil {
		return 0, err
	}
	x0 := make([]float64, m.NumStates())
	x0[m.StateIndex(0, m.Spec.CounterLen-1, m.PhaseIndex(startPhi))] = 1
	return ch.MixingTime(x0, pi, eps, maxBits)
}
