package core

import (
	"fmt"

	"cdrstoch/internal/dist"
	"cdrstoch/internal/fsm"
)

// Phase-detector output symbols.
const (
	pdLag  = 0
	pdNull = 1
	pdLead = 2
)

// Counter command symbols (phase correction requests).
const (
	cmdAdvance = 0 // counter underflow: advance phase by +G
	cmdNone    = 1
	cmdRetard  = 2 // counter overflow: retard phase by −G
)

// AsNetwork renders the model as an explicit four-FSM network with
// stochastic sources — the compositional structure of the paper's
// Figure 2. Because the fsm formalism needs finite alphabets, the
// continuous eye jitter is replaced by the supplied grid PMF nw; building
// the direct model with the same PMF as its EyeJitter law yields an
// identical chain (cross-validated in tests). The returned network is
// finalized and ready for BuildChain or DOT export.
func (m *Model) AsNetwork(nw *dist.PMF) (*fsm.Network, error) {
	if nw == nil {
		return nil, fmt.Errorf("core: discretized n_w PMF required")
	}
	drift := m.Spec.Drift.Trim()
	n := fsm.NewNetwork()

	// Stochastic sources: the bit-flip coin, the eye jitter and the
	// accumulating noise.
	if err := n.AddSource(&fsm.Source{
		Name: "bitflip",
		Prob: []float64{1 - m.Spec.TransitionDensity, m.Spec.TransitionDensity},
	}); err != nil {
		return nil, err
	}
	nwProb := make([]float64, nw.Len())
	copy(nwProb, nw.Prob)
	if err := n.AddSource(&fsm.Source{Name: "nw", Prob: nwProb}); err != nil {
		return nil, err
	}
	nrProb := make([]float64, drift.Len())
	copy(nrProb, drift.Prob)
	if err := n.AddSource(&fsm.Source{Name: "nr", Prob: nrProb}); err != nil {
		return nil, err
	}

	// Data source FSM: tracks the run length of identical bits and forces
	// a transition at the cap.
	spec := m.Spec
	data := &fsm.Machine{
		Name:      "data",
		NumStates: m.D,
		Inputs:    []fsm.Port{{Name: "flip", Size: 2}},
		OutSize:   2,
		Next: func(r int, in []int) int {
			return spec.NextDataState(r, dataTransition(spec, r, in[0]))
		},
		Out: func(r int, in []int) int {
			if dataTransition(spec, r, in[0]) {
				return 1
			}
			return 0
		},
		StateName: func(r int) string { return fmt.Sprintf("run%d", r) },
	}
	if err := n.AddMachine(data); err != nil {
		return nil, err
	}

	// Phase detector: memoryless; LAG/NULL/LEAD from the data transition
	// indicator and the sign of Φ + n_w.
	model := m
	pd := &fsm.Machine{
		Name:      "pd",
		NumStates: 1,
		Inputs: []fsm.Port{
			{Name: "trans", Size: 2},
			{Name: "nw", Size: nw.Len()},
			{Name: "phase", Size: m.M},
		},
		OutSize: 3,
		Next:    func(int, []int) int { return 0 },
		Out: func(_ int, in []int) int {
			if in[0] == 0 {
				return pdNull
			}
			v := model.PhaseValue(in[2]) + nw.Value(in[1])
			switch {
			case v > model.Spec.PDDeadZone:
				return pdLead
			case v <= -model.Spec.PDDeadZone:
				return pdLag
			default:
				return pdNull
			}
		},
	}
	if err := n.AddMachine(pd); err != nil {
		return nil, err
	}

	// Loop filter: up/down counter emitting a correction command on
	// overflow.
	counter := &fsm.Machine{
		Name:      "counter",
		NumStates: m.C,
		Inputs:    []fsm.Port{{Name: "pd", Size: 3}},
		OutSize:   3,
		Next: func(c int, in []int) int {
			next, _ := counterDecision(model, c, in[0])
			return next
		},
		Out: func(c int, in []int) int {
			_, cmd := counterDecision(model, c, in[0])
			return cmd
		},
		Initial:   m.Spec.CounterLen - 1,
		StateName: func(c int) string { return fmt.Sprintf("c%+d", model.CounterValue(c)) },
	}
	if err := n.AddMachine(counter); err != nil {
		return nil, err
	}

	// Phase error integrator: Moore (its quantized phase feeds back into
	// the PD, breaking the combinational loop exactly where the hardware
	// has a register).
	phase := &fsm.Machine{
		Name:      "phase",
		NumStates: m.M,
		Inputs: []fsm.Port{
			{Name: "cmd", Size: 3},
			{Name: "nr", Size: drift.Len()},
		},
		OutSize: m.M,
		Moore:   true,
		Next: func(mi int, in []int) int {
			next := mi + commandSteps(model, in[0]) + drift.MinK + in[1]
			if model.Spec.WrapPhase {
				return ((next % model.M) + model.M) % model.M
			}
			if next < 0 {
				return 0
			}
			if next >= model.M {
				return model.M - 1
			}
			return next
		},
		Out:       func(mi int, _ []int) int { return mi },
		Initial:   m.mid,
		StateName: func(mi int) string { return fmt.Sprintf("%+.4f", model.PhaseValue(mi)) },
	}
	if err := n.AddMachine(phase); err != nil {
		return nil, err
	}

	wires := []struct {
		machine, port string
		ep            fsm.Endpoint
	}{
		{"data", "flip", fsm.SourceOut("bitflip")},
		{"pd", "trans", fsm.MachineOut("data")},
		{"pd", "nw", fsm.SourceOut("nw")},
		{"pd", "phase", fsm.MachineOut("phase")},
		{"counter", "pd", fsm.MachineOut("pd")},
		{"phase", "cmd", fsm.MachineOut("counter")},
		{"phase", "nr", fsm.SourceOut("nr")},
	}
	for _, w := range wires {
		if err := n.Connect(w.machine, w.port, w.ep); err != nil {
			return nil, err
		}
	}
	if err := n.Finalize(); err != nil {
		return nil, err
	}
	return n, nil
}

// dataTransition reports whether a transition occurs in run-length state r
// given the coin outcome.
func dataTransition(s Spec, r, coin int) bool {
	if s.MaxRunLength > 0 && r == s.MaxRunLength-1 {
		return true
	}
	return coin == 1
}

// counterDecision advances the counter on a PD symbol and returns the next
// state and the correction command.
func counterDecision(m *Model, c, pdSym int) (next, cmd int) {
	switch pdSym {
	case pdNull:
		return c, cmdNone
	case pdLead:
		next, ov := counterAdvance(m.Spec.CounterLen, c, +1)
		if ov != 0 {
			return next, cmdRetard
		}
		return next, cmdNone
	default: // pdLag
		next, ov := counterAdvance(m.Spec.CounterLen, c, -1)
		if ov != 0 {
			return next, cmdAdvance
		}
		return next, cmdNone
	}
}

// commandSteps converts a correction command to grid steps.
func commandSteps(m *Model, cmd int) int {
	switch cmd {
	case cmdRetard:
		return -m.corrSteps
	case cmdAdvance:
		return +m.corrSteps
	default:
		return 0
	}
}
