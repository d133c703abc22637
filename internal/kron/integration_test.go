// Package kron_test holds the cross-package integration check: a
// descriptor built from independent FSM components must reproduce the
// explicit synchronous-product chain that fsm.Network assembles.
package kron_test

import (
	"math"
	"testing"

	"cdrstoch/internal/fsm"
	"cdrstoch/internal/kron"
	"cdrstoch/internal/markov"
	"cdrstoch/internal/spmat"
)

// marginal builds one machine's transition probability matrix under its
// private source: P[s][s'] = Σ_sym p(sym)·[next(s, sym) = s'].
func marginal(numStates int, prob []float64, next func(s, sym int) int) *spmat.CSR {
	tr := spmat.NewTriplet(numStates, numStates)
	for s := 0; s < numStates; s++ {
		for sym, p := range prob {
			if p > 0 {
				tr.Add(s, next(s, sym), p)
			}
		}
	}
	return tr.ToCSR()
}

// TestDescriptorMatchesFSMProduct solves the same compositional model
// both ways: fsm.Network.BuildChain materializes the synchronous product
// of two independent stochastic machines, while a Kronecker descriptor
// over the per-machine marginals never forms it. The stationary
// distributions must agree state-for-state to 1e-12 after mapping the
// descriptor's lexicographic layout onto the chain's BFS indices.
func TestDescriptorMatchesFSMProduct(t *testing.T) {
	aProb := []float64{0.5, 0.3, 0.2}
	bProb := []float64{0.6, 0.4}
	aNext := func(s, sym int) int { return (s + sym) % 3 }
	bNext := func(s, sym int) int { return (s + sym + 1) % 2 }

	n := fsm.NewNetwork()
	if err := n.AddSource(&fsm.Source{Name: "sa", Prob: aProb}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddSource(&fsm.Source{Name: "sb", Prob: bProb}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddMachine(&fsm.Machine{
		Name: "A", NumStates: 3,
		Inputs: []fsm.Port{{Name: "in", Size: len(aProb)}},
		Next:   func(s int, in []int) int { return aNext(s, in[0]) },
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddMachine(&fsm.Machine{
		Name: "B", NumStates: 2,
		Inputs: []fsm.Port{{Name: "in", Size: len(bProb)}},
		Next:   func(s int, in []int) int { return bNext(s, in[0]) },
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("A", "in", fsm.SourceOut("sa")); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("B", "in", fsm.SourceOut("sb")); err != nil {
		t.Fatal(err)
	}
	chain, err := n.BuildChain()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := chain.P.Dims(); got != 6 {
		t.Fatalf("product chain has %d states, want 6", got)
	}

	d, err := kron.NewDescriptor([]kron.Term{{Coeff: 1, Factors: []*spmat.CSR{
		marginal(3, aProb, aNext),
		marginal(2, bProb, bNext),
	}}})
	if err != nil {
		t.Fatal(err)
	}

	// Explicit reference solve on the materialized product.
	mc, err := markov.New(chain.P)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mc.StationaryDirect()
	if err != nil {
		t.Fatal(err)
	}

	// Matrix-free solve over the descriptor through the markov.Operator
	// seam that the solver stack uses.
	oc, err := markov.NewOperator(d)
	if err != nil {
		t.Fatal(err)
	}
	ores, err := oc.StationaryPower(markov.Options{Tol: 1e-14, MaxIter: 100000})
	if err != nil {
		t.Fatal(err)
	}

	tuple := []int{0, 0}
	for a := 0; a < 3; a++ {
		for b := 0; b < 2; b++ {
			tuple[0], tuple[1] = a, b
			ci := chain.StateIndex(tuple)
			if ci < 0 {
				t.Fatalf("tuple (%d,%d) unreachable in explicit chain", a, b)
			}
			ki := a*2 + b
			if math.Abs(ores.Pi[ki]-ref[ci]) > 1e-12 {
				t.Fatalf("pi(%d,%d): operator-chain %g vs explicit %g", a, b, ores.Pi[ki], ref[ci])
			}
		}
	}
}
