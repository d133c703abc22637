package serve

import (
	"fmt"
	"runtime/debug"
)

// PanicError wraps a panic recovered at a service boundary — the
// singleflight leader, an async job, a sweep point, or an HTTP handler.
// Converting panics into typed errors is what keeps a panicking solve a
// failed request instead of a dead process; the HTTP layer maps it to
// 500 with the trace ID and flight tail attached like any other solver
// failure.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (p *PanicError) Error() string { return fmt.Sprintf("panic: %v", p.Value) }

// Unwrap exposes an error panic value (e.g. an injected *faults.Error)
// to errors.Is/As through the wrapper.
func (p *PanicError) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// shield runs fn, converting a panic into a *PanicError. It is the one
// recovery primitive every solver-side boundary shares, so the guarantee
// "a panicking solve fails that solve, not the process" has a single
// implementation to audit.
func shield(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}
