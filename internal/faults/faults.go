// Package faults is the deterministic fault-injection layer of the
// repository: named injection points threaded through the service and
// solver seams (engine solve entry, cache insert/evict, singleflight
// leader handoff, job-queue dequeue, solver iteration boundaries) that
// can be armed to return errors, panic, or delay — reproducibly, from a
// seed. The solvers never import this package: the service puts
// Injector.FireCtx in each solve's run handle (obs.Run.Fault), and the
// solvers' probes fire their point through it.
//
// The package follows the same zero-cost-when-disabled contract as
// internal/obs: a nil *Injector is valid and disables every point at the
// cost of one branch, and firing an unarmed point on a live injector is
// one map lookup with no allocation. Hot solver loops therefore carry
// their injection points unconditionally; chaos tests and operators arm
// them via Parse/FromEnv (the CDR_FAULTS environment variable).
//
// Registered injection points in this repository:
//
//	engine.solve         serve.Engine.solve entry (after the solve slot
//	                     is acquired)
//	cache.put            serve result-cache insert, before any mutation
//	cache.evict          serve result-cache eviction, before each removal
//	singleflight.leader  the moment a caller becomes the flight leader
//	jobs.dequeue         async job dequeue, before the job runs
//	multigrid.cycle      after every multigrid cycle
//	gmres.restart        after every GMRES restart
//	markov.sweep         after every power/Jacobi/Gauss–Seidel sweep
//
// Spec grammar (CDR_FAULTS or Parse):
//
//	spec  := rule (',' rule)*
//	rule  := point ':' mode (':' key '=' value)*
//	mode  := error | panic | delay
//	keys  := p     fire probability per hit (default 1: always)
//	         after skip the first N hits
//	         n     cap the total number of fires (default unlimited)
//	         ms    delay in milliseconds (delay mode; default 10)
//	         d     delay as a Go duration (delay mode)
//
// Example: one solve failure then clean behavior, plus a 50 ms stall on
// every fourth cache insert:
//
//	CDR_FAULTS='engine.solve:error:n=1,cache.put:delay:ms=50:p=0.25'
//
// Probabilistic rules draw from a splitmix64 stream seeded by
// (seed, rule index), so a fixed seed replays the same fire/skip
// decision sequence; CDR_FAULTS_SEED overrides the default seed of 1.
package faults

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cdrstoch/internal/obs"
)

// Mode selects what an armed injection point does when it fires.
type Mode int

const (
	// ModeError makes the point return an *Error.
	ModeError Mode = iota
	// ModePanic makes the point panic with an *Error value.
	ModePanic
	// ModeDelay makes the point sleep for Rule.Delay, then succeed.
	ModeDelay
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeDelay:
		return "delay"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ErrInjected is the sentinel every injected error (and panic value)
// wraps; errors.Is(err, faults.ErrInjected) identifies chaos-made
// failures in tests and logs.
var ErrInjected = errors.New("injected fault")

// Error is the failure an armed error- or panic-mode point produces.
type Error struct {
	Point string
}

func (e *Error) Error() string { return "injected fault at " + e.Point }

func (e *Error) Unwrap() error { return ErrInjected }

// Rule arms one injection point. The zero values of the tuning fields
// mean "always, immediately, forever": Prob outside (0,1) fires on every
// hit, After 0 skips nothing, Count 0 never exhausts.
type Rule struct {
	// Point names the injection point the rule arms.
	Point string
	// Mode selects error, panic, or delay.
	Mode Mode
	// Prob is the per-hit fire probability; values outside (0,1) always
	// fire. Decisions are drawn from the rule's seeded stream.
	Prob float64
	// After skips the first N hits of the point before the rule becomes
	// eligible.
	After int64
	// Count caps the total number of fires; 0 is unlimited. An exhausted
	// rule lets the point succeed — chaos tests use this to assert clean
	// recovery after the fault clears.
	Count int64
	// Delay is the ModeDelay sleep.
	Delay time.Duration
}

// armed is a Rule plus its runtime state: hit/fire counters and the
// private splitmix64 stream behind probabilistic decisions.
type armed struct {
	Rule
	fired *obs.Counter
	hits  atomic.Int64
	shots atomic.Int64
	rng   atomic.Uint64
}

// Injector holds the armed rules, indexed by point name. A nil *Injector
// is valid and disables everything; all methods are safe for concurrent
// use.
type Injector struct {
	rules map[string][]*armed
}

// splitmix64 is the splitmix64 finalizer (Steele, Lea & Flood 2014), the
// same bijective mixer the Monte Carlo sub-seeding uses.
func splitmix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

const golden = 0x9E3779B97F4A7C15

// New arms the given rules. Probabilistic decisions are deterministic in
// (seed, rule order). reg may be nil; each rule otherwise increments a
// faults.fired.<point> counter when it fires. An empty rule set yields a
// nil (disabled) injector.
func New(rules []Rule, seed int64, reg *obs.Registry) (*Injector, error) {
	if len(rules) == 0 {
		return nil, nil
	}
	in := &Injector{rules: make(map[string][]*armed, len(rules))}
	for i, r := range rules {
		if r.Point == "" {
			return nil, fmt.Errorf("faults: rule %d has no point name", i)
		}
		if r.Mode < ModeError || r.Mode > ModeDelay {
			return nil, fmt.Errorf("faults: rule %d (%s): unknown mode %d", i, r.Point, int(r.Mode))
		}
		if r.Mode == ModeDelay && r.Delay <= 0 {
			r.Delay = 10 * time.Millisecond
		}
		a := &armed{Rule: r, fired: reg.Counter("faults.fired." + r.Point)}
		a.rng.Store(splitmix64(uint64(seed) + (uint64(i)+1)*golden))
		in.rules[r.Point] = append(in.rules[r.Point], a)
	}
	return in, nil
}

// Parse arms an injector from a spec string (see the package comment for
// the grammar). An empty spec yields a nil (disabled) injector.
func Parse(spec string, seed int64, reg *obs.Registry) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var rules []Rule
	for _, raw := range strings.Split(spec, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		parts := strings.Split(raw, ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("faults: rule %q: want point:mode[:key=value...]", raw)
		}
		r := Rule{Point: parts[0]}
		switch parts[1] {
		case "error":
			r.Mode = ModeError
		case "panic":
			r.Mode = ModePanic
		case "delay":
			r.Mode = ModeDelay
		default:
			return nil, fmt.Errorf("faults: rule %q: unknown mode %q (want error, panic or delay)", raw, parts[1])
		}
		for _, kv := range parts[2:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("faults: rule %q: parameter %q is not key=value", raw, kv)
			}
			var err error
			switch k {
			case "p":
				r.Prob, err = strconv.ParseFloat(v, 64)
			case "after":
				r.After, err = strconv.ParseInt(v, 10, 64)
			case "n":
				r.Count, err = strconv.ParseInt(v, 10, 64)
			case "ms":
				var msv int64
				msv, err = strconv.ParseInt(v, 10, 64)
				r.Delay = time.Duration(msv) * time.Millisecond
			case "d":
				r.Delay, err = time.ParseDuration(v)
			default:
				return nil, fmt.Errorf("faults: rule %q: unknown parameter %q", raw, k)
			}
			if err != nil {
				return nil, fmt.Errorf("faults: rule %q: parameter %q: %v", raw, kv, err)
			}
		}
		rules = append(rules, r)
	}
	return New(rules, seed, reg)
}

// FromEnv arms an injector from the CDR_FAULTS environment variable,
// seeded by CDR_FAULTS_SEED (default 1). Unset or empty CDR_FAULTS
// yields a nil (disabled) injector and no error.
func FromEnv(reg *obs.Registry) (*Injector, error) {
	spec := os.Getenv("CDR_FAULTS")
	if spec == "" {
		return nil, nil
	}
	seed := int64(1)
	if s := os.Getenv("CDR_FAULTS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("faults: CDR_FAULTS_SEED: %v", err)
		}
		seed = v
	}
	return Parse(spec, seed, reg)
}

// Fire hits the named injection point: it returns an injected *Error,
// panics, or sleeps when an armed rule fires, and returns nil otherwise.
// On a nil injector it costs one branch; on a live injector with no rule
// for the point, one map lookup. Neither path allocates.
func (in *Injector) Fire(point string) error { return in.FireCtx(nil, point) }

// FireCtx is Fire with a context bounding delay-mode sleeps: a canceled
// or expired ctx cuts the sleep short (the point then succeeds — the
// caller's own ctx check at the next boundary reports cancellation). A
// nil ctx sleeps the full delay.
func (in *Injector) FireCtx(ctx context.Context, point string) error {
	if in == nil {
		return nil
	}
	rules := in.rules[point]
	if rules == nil {
		return nil
	}
	for _, r := range rules {
		if err := r.fire(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (r *armed) fire(ctx context.Context) error {
	if r.hits.Add(1) <= r.After {
		return nil
	}
	if r.Prob > 0 && r.Prob < 1 && !r.roll() {
		return nil
	}
	if shot := r.shots.Add(1); r.Count > 0 && shot > r.Count {
		return nil
	}
	r.fired.Inc()
	switch r.Mode {
	case ModeDelay:
		r.sleep(ctx)
		return nil
	case ModePanic:
		panic(&Error{Point: r.Point})
	default:
		return &Error{Point: r.Point}
	}
}

// roll draws the rule's next fire/skip decision from its private
// splitmix64 stream. The stream state advances atomically, so the k-th
// decision is deterministic in (seed, rule index, k) regardless of which
// goroutine takes it.
func (r *armed) roll() bool {
	s := splitmix64(r.rng.Add(golden))
	return float64(s>>11)/(1<<53) < r.Prob
}

func (r *armed) sleep(ctx context.Context) {
	if ctx == nil {
		time.Sleep(r.Delay)
		return
	}
	t := time.NewTimer(r.Delay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Points lists the armed injection points, sorted; nil when disabled.
// cdrserved logs this at startup so chaos runs are self-describing.
func (in *Injector) Points() []string {
	if in == nil {
		return nil
	}
	pts := make([]string, 0, len(in.rules))
	for p := range in.rules {
		pts = append(pts, p)
	}
	sort.Strings(pts)
	return pts
}

// String summarizes the armed rules, sorted by point.
func (in *Injector) String() string {
	if in == nil {
		return "faults: disabled"
	}
	var b strings.Builder
	b.WriteString("faults:")
	for _, p := range in.Points() {
		for _, r := range in.rules[p] {
			fmt.Fprintf(&b, " %s:%s", r.Point, r.Mode)
			if r.Prob > 0 && r.Prob < 1 {
				fmt.Fprintf(&b, ":p=%g", r.Prob)
			}
			if r.After > 0 {
				fmt.Fprintf(&b, ":after=%d", r.After)
			}
			if r.Count > 0 {
				fmt.Fprintf(&b, ":n=%d", r.Count)
			}
			if r.Mode == ModeDelay {
				fmt.Fprintf(&b, ":d=%s", r.Delay)
			}
		}
	}
	return b.String()
}
