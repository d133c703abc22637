package markov

import "cdrstoch/internal/spmat"

// Structural analysis: strongly connected components (Tarjan), recurrence
// classification, irreducibility and period. The CDR model is constructed
// over its reachable state space, but reducibility can still arise from
// degenerate parameter choices (e.g. zero transition density); these
// checks turn such mistakes into diagnostics instead of silent
// non-convergence.

// explicit returns the one explicit matrix a structural query walks: the
// chain's own CSR, or the materialization of a matrix-free backend that
// offers one (kron.Descriptor's ToCSR), built once per query. It panics
// on a backend that can do neither.
func (c *Chain) explicit() *spmat.CSR {
	if c.p != nil {
		return c.p
	}
	if m, ok := c.op.(interface{ ToCSR() *spmat.CSR }); ok {
		return m.ToCSR()
	}
	panic("markov: structural analysis needs an explicit CSR or a backend with ToCSR")
}

// SCCs returns the strongly connected components of the chain's directed
// transition graph (edges with positive probability), using Tarjan's
// algorithm with an explicit stack to survive million-state graphs without
// blowing the goroutine stack. Components are returned in reverse
// topological order (every edge leaving component k targets a component
// with index < k... specifically Tarjan emits sinks first).
func (c *Chain) SCCs() [][]int { return sccs(c.explicit()) }

func sccs(p *spmat.CSR) [][]int {
	n, _ := p.Dims()
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		stack  []int
		comps  [][]int
		nextID int
	)
	// Iterative Tarjan: frame holds the vertex and the position within its
	// adjacency list.
	type frame struct {
		v, ei int
	}
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames := []frame{{v: root}}
		index[root] = nextID
		low[root] = nextID
		nextID++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			cols, vals := p.Row(f.v)
			advanced := false
			for f.ei < len(cols) {
				w := cols[f.ei]
				pw := vals[f.ei]
				f.ei++
				if pw == 0 {
					continue
				}
				if index[w] == unvisited {
					index[w] = nextID
					low[w] = nextID
					nextID++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// All edges of f.v explored: close the frame.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				u := frames[len(frames)-1].v
				if low[v] < low[u] {
					low[u] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	return comps
}

// IsIrreducible reports whether the chain has a single strongly connected
// component.
func (c *Chain) IsIrreducible() bool { return len(c.SCCs()) == 1 }

// RecurrentClasses returns the closed (recurrent) communicating classes:
// SCCs with no positive-probability edge leaving them. An ergodic chain
// has exactly one, covering all states.
func (c *Chain) RecurrentClasses() [][]int {
	p := c.explicit()
	comps := sccs(p)
	n, _ := p.Dims()
	id := make([]int, n)
	for ci, comp := range comps {
		for _, v := range comp {
			id[v] = ci
		}
	}
	closed := make([]bool, len(comps))
	for i := range closed {
		closed[i] = true
	}
	for v := 0; v < n; v++ {
		cols, vals := p.Row(v)
		for k, w := range cols {
			if vals[k] > 0 && id[w] != id[v] {
				closed[id[v]] = false
			}
		}
	}
	var out [][]int
	for ci, comp := range comps {
		if closed[ci] {
			out = append(out, comp)
		}
	}
	return out
}

// Period returns the period of an irreducible chain: the gcd of all cycle
// lengths, computed from BFS level differences. It returns 0 for a
// reducible chain (period is then class-dependent).
func (c *Chain) Period() int { return period(c.explicit()) }

func period(p *spmat.CSR) int {
	if len(sccs(p)) != 1 {
		return 0
	}
	n, _ := p.Dims()
	level := make([]int, n)
	for i := range level {
		level[i] = -1
	}
	level[0] = 0
	queue := []int{0}
	g := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		cols, vals := p.Row(v)
		for k, w := range cols {
			if vals[k] == 0 {
				continue
			}
			if level[w] < 0 {
				level[w] = level[v] + 1
				queue = append(queue, w)
			} else {
				d := level[v] + 1 - level[w]
				if d < 0 {
					d = -d
				}
				g = gcd(g, d)
				if g == 1 {
					return 1
				}
			}
		}
	}
	if g == 0 {
		// Single state with a self-loop-free graph cannot occur in a
		// stochastic matrix; g==0 means no cycle discrepancies, i.e. the
		// chain is a single cycle of length n.
		return n
	}
	return g
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// IsErgodic reports whether the chain is irreducible and aperiodic, the
// condition under which every solver here converges to the unique
// stationary distribution. Period is 0 for a reducible chain, so period 1
// is both conditions.
func (c *Chain) IsErgodic() bool { return c.Period() == 1 }
