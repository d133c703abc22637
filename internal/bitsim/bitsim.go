// Package bitsim is the "straightforward, simulation based" baseline the
// paper argues against: a direct Monte Carlo simulation of the CDR
// difference equations (2)–(3), one bit period per step. It exists for two
// reasons. First, it cross-validates the Markov-chain analysis wherever
// the BER is large enough to estimate by counting errors. Second, it makes
// the paper's infeasibility argument quantitative: estimating a BER of
// 1e−12 to ±10% needs ~1e14 simulated bits, while the analysis of the same
// model solves in seconds (see the mcvalidate example and the
// BenchmarkMonteCarloBER benchmark).
package bitsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"cdrstoch/internal/core"
	"cdrstoch/internal/dist"
	"cdrstoch/internal/obs"
)

// Config parameterizes a Monte Carlo run.
type Config struct {
	// Spec is the CDR model specification; the simulator reproduces the
	// exact discretized dynamics of the Markov model (grid phase, PMF
	// n_r), so estimates converge to the analysis results.
	Spec core.Spec
	// Bits is the number of bit periods to simulate after warmup.
	Bits int64
	// WarmupBits discards the acquisition transient. Default Bits/20,
	// at least 1000.
	WarmupBits int64
	// Seed seeds the random stream.
	Seed int64
	// SampleEye overrides the eye-jitter sampler. When nil, a sampler is
	// derived from Spec.EyeJitter (Gaussian and uniform laws are
	// recognized; other laws must supply a sampler).
	SampleEye func(*rand.Rand) float64
	// Metrics, when non-nil, accumulates the counters "bitsim.bits",
	// "bitsim.errors" and "bitsim.slips" and sets the gauge
	// "bitsim.bits_per_sec" from the run's wall-clock rate.
	Metrics *obs.Registry
	// WorkerID labels progress events; RunParallel sets it to the chunk
	// index. Leave 0 for serial runs.
	WorkerID int
	// ChunkBits is RunParallel's work-decomposition granularity (bits per
	// chunk; default 262144). The chunk layout — not the worker count —
	// determines every random stream, so merged estimates depend only on
	// (Seed, Bits, ChunkBits). Override only to tune scheduling.
	ChunkBits int64
	// Ctx, when non-nil, is polled on the progress cadence (every 2^17
	// simulated bits): a canceled or expired context aborts the run with a
	// partial-progress error wrapping ctx.Err(). RunParallel additionally
	// checks it between chunks. Its run handle (obs.Run), if any,
	// receives a "bitsim.run" span and a "progress" event at every poll
	// and at completion, carrying WorkerID, the bits simulated so far and
	// the total. Nil never cancels.
	Ctx context.Context
}

// Result reports a Monte Carlo run.
type Result struct {
	// Bits and Errors count simulated decisions and bit errors.
	Bits, Errors int64
	// BER is the point estimate Errors/Bits.
	BER float64
	// CILow and CIHigh bound the 95% Wilson confidence interval.
	CILow, CIHigh float64
	// SlipEntries counts entries into the slip set (|Φ| reaching the
	// decision threshold from below).
	SlipEntries int64
	// MeanTimeBetweenSlips is Bits-outside-slip / SlipEntries (+Inf when
	// no slip occurred).
	MeanTimeBetweenSlips float64
	// PhaseHistogram is the empirical phase-error distribution over the
	// grid (normalized).
	PhaseHistogram []float64
}

// String summarizes the estimate.
func (r *Result) String() string {
	return fmt.Sprintf("bits=%d errors=%d BER=%.3e [%.3e, %.3e] slips=%d",
		r.Bits, r.Errors, r.BER, r.CILow, r.CIHigh, r.SlipEntries)
}

// eyeSampler derives a sampler from the spec's eye-jitter law.
func eyeSampler(c dist.Continuous) (func(*rand.Rand) float64, error) {
	switch law := c.(type) {
	case dist.Gaussian:
		return func(rng *rand.Rand) float64 {
			return law.Mu + law.Sigma*rng.NormFloat64()
		}, nil
	case dist.Uniform:
		return func(rng *rand.Rand) float64 {
			return law.A + (law.B-law.A)*rng.Float64()
		}, nil
	case dist.Sinusoidal:
		return func(rng *rand.Rand) float64 {
			return law.Amp * math.Sin(2*math.Pi*rng.Float64())
		}, nil
	case dist.Laplace:
		return func(rng *rand.Rand) float64 {
			u := rng.Float64() - 0.5
			sign := 1.0
			if u < 0 {
				sign = -1
				u = -u
			}
			return law.Mu - sign*law.B*math.Log(1-2*u)
		}, nil
	case *dist.PMF:
		s, err := dist.NewSampler(law)
		if err != nil {
			return nil, err
		}
		return s.Sample, nil
	default:
		return nil, errors.New("bitsim: unsupported eye-jitter law; supply Config.SampleEye")
	}
}

// Run simulates the CDR loop and estimates the BER and slip statistics.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Bits <= 0 {
		return nil, errors.New("bitsim: Bits must be positive")
	}
	warm := cfg.WarmupBits
	if warm <= 0 {
		warm = cfg.Bits / 20
		if warm < 1000 {
			warm = 1000
		}
	}
	m, err := core.Build(cfg.Spec) // reuse the validated grid geometry
	if err != nil {
		return nil, err
	}
	sampleEye := cfg.SampleEye
	if sampleEye == nil {
		sampleEye, err = eyeSampler(cfg.Spec.EyeJitter)
		if err != nil {
			return nil, err
		}
	}
	drift := cfg.Spec.Drift.Trim()
	driftSampler, err := dist.NewSampler(drift)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Loop state, mirroring the Markov model exactly.
	run := 0                         // data run-length state
	counter := m.Spec.CounterLen - 1 // counter index (value 0)
	mi := m.PhaseIndex(0)            // phase index (Φ = 0)
	thr := cfg.Spec.Threshold

	hist := make([]float64, m.M)
	res := &Result{PhaseHistogram: hist}
	wrap := cfg.Spec.WrapPhase
	slipNow := func(mIdx int) bool {
		if wrap {
			return false // wrap models count boundary crossings instead
		}
		phi := m.PhaseValue(mIdx)
		return phi >= thr || phi <= -thr
	}
	inSlip := slipNow(mi)
	var outsideBits int64

	// Progress cadence: cheap power-of-two stride so the check is a mask.
	const progressStride = 1 << 17
	start := time.Now()
	probe := obs.Begin(cfg.Ctx, "bitsim.run", obs.Sweeps, "", nil)
	defer probe.End(obs.Work{})

	total := warm + cfg.Bits
	for k := int64(0); k < total; k++ {
		if (k+1)&(progressStride-1) == 0 {
			if err := probe.Progress("bitsim", cfg.WorkerID, k+1, total); err != nil {
				return nil, fmt.Errorf("bitsim: run stopped after %d of %d bits: %w", k+1, total, err)
			}
		}
		measuring := k >= warm
		phi := m.PhaseValue(mi)
		nw := sampleEye(rng)

		if measuring {
			res.Bits++
			hist[mi]++
			if phi+nw > thr || phi+nw < -thr {
				res.Errors++
			}
			if !inSlip {
				outsideBits++
			}
		}

		// Data source: forced transition at the run-length cap.
		transition := false
		if cfg.Spec.MaxRunLength > 0 && run == cfg.Spec.MaxRunLength-1 {
			transition = true
		} else if rng.Float64() < cfg.Spec.TransitionDensity {
			transition = true
		}
		corr := 0
		if transition {
			run = 0
			v := phi + nw
			switch {
			case v > cfg.Spec.PDDeadZone:
				counter, corr = counterStep(m, counter, +1)
			case v <= -cfg.Spec.PDDeadZone:
				counter, corr = counterStep(m, counter, -1)
			default:
				// Dead zone: the PD emits NULL; the counter holds.
			}
		} else if cfg.Spec.MaxRunLength > 0 && run < cfg.Spec.MaxRunLength-1 {
			run++
		}

		// Phase update: correction plus sampled n_r — saturating, or
		// wrapping with boundary crossings counted as cycle slips.
		mi += corr + driftSampler.SampleIndex(rng)
		if wrap {
			if mi < 0 || mi >= m.M {
				if measuring {
					res.SlipEntries++
				}
				mi = ((mi % m.M) + m.M) % m.M
			}
		} else {
			if mi < 0 {
				mi = 0
			}
			if mi >= m.M {
				mi = m.M - 1
			}
			nowSlip := slipNow(mi)
			if measuring && nowSlip && !inSlip {
				res.SlipEntries++
			}
			inSlip = nowSlip
		}
	}

	for i := range hist {
		hist[i] /= float64(res.Bits)
	}
	res.BER = float64(res.Errors) / float64(res.Bits)
	res.CILow, res.CIHigh = wilson(res.Errors, res.Bits)
	if res.SlipEntries > 0 {
		res.MeanTimeBetweenSlips = float64(outsideBits) / float64(res.SlipEntries)
	} else {
		res.MeanTimeBetweenSlips = math.Inf(1)
	}
	// The run is complete: a cancellation now has nothing left to stop.
	_ = probe.Progress("bitsim", cfg.WorkerID, total, total)
	if cfg.Metrics != nil {
		cfg.Metrics.Counter("bitsim.bits").Add(res.Bits)
		cfg.Metrics.Counter("bitsim.errors").Add(res.Errors)
		cfg.Metrics.Counter("bitsim.slips").Add(res.SlipEntries)
		if dt := time.Since(start).Seconds(); dt > 0 {
			cfg.Metrics.Gauge("bitsim.bits_per_sec").Set(float64(total) / dt)
		}
	}
	return res, nil
}

// counterStep mirrors core's counter semantics using the model geometry.
func counterStep(m *core.Model, cIdx, dir int) (next, corrSteps int) {
	l := m.Spec.CounterLen
	c := cIdx - (l - 1) + dir
	g := int(m.Spec.CorrectionStep/m.Spec.GridStep + 0.5)
	switch {
	case c >= l:
		return l - 1, -g
	case c <= -l:
		return l - 1, +g
	default:
		return c + (l - 1), 0
	}
}

// wilson returns the 95% Wilson score interval for k successes in n trials.
func wilson(k, n int64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	const z = 1.959963984540054
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// BitsForTarget returns the number of simulated bits needed to estimate a
// BER of magnitude ber with the given relative precision at ~95%
// confidence — the quantitative form of the paper's infeasibility
// argument (ber=1e−12, rel=0.1 → ~3.8e14 bits).
func BitsForTarget(ber, rel float64) (float64, error) {
	if ber <= 0 || ber >= 1 || rel <= 0 {
		return 0, errors.New("bitsim: need 0 < ber < 1 and rel > 0")
	}
	const z = 1.959963984540054
	return z * z * (1 - ber) / (ber * rel * rel), nil
}
