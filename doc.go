// Package cdrstoch reproduces "Stochastic Modeling and Performance
// Evaluation for Digital Clock and Data Recovery Circuits" (Demir &
// Feldmann, Bell Laboratories, DATE 2000): a non-Monte-Carlo method that
// models a CDR circuit's digital phase-selection loop as a network of
// finite state machines with stochastic inputs, analyzes the resulting
// Markov chain with a dedicated multi-level aggregation (multigrid)
// solver, and derives bit-error rates and cycle-slip statistics that are
// far below anything direct simulation could resolve.
//
// The library lives under internal/ (this module is self-contained):
//
//   - internal/core       — the CDR stochastic model (the paper's contribution)
//   - internal/markov     — Markov-chain analysis, classical solvers, GMRES,
//     transient/survival analysis, spectra, the group inverse
//   - internal/multigrid  — the multilevel aggregation solver
//   - internal/lump       — partitions, lumping, aggregation operators
//   - internal/kron       — Kronecker (stochastic automata network) backend
//   - internal/fsm        — FSM-with-stochastic-inputs formalism (Figure 2)
//   - internal/spmat      — sparse/dense kernels, GTH direct solve
//   - internal/dist       — jitter and drift distributions
//   - internal/passage    — first-passage, cycle-slip and quasi-stationary analysis
//   - internal/pllsim     — charge-pump PLL clock-jitter substrate
//   - internal/bitsim     — Monte Carlo baseline (serial and parallel)
//   - internal/freqloop   — second-order (phase + frequency) loop extension
//   - internal/regime     — Markov-modulated noise regimes (interference bursts)
//   - internal/experiments — calibrated figure configurations and studies
//
// See README.md for a tour, DESIGN.md for the system inventory and
// experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// The benchmarks in bench_test.go regenerate every figure of the paper's
// evaluation section; the runnable examples live under examples/.
package cdrstoch
