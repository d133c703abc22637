package serve

import (
	"errors"
	"fmt"
	"runtime/debug"

	"cdrstoch/internal/faults"
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

// transientErr classifies a failure for the retry policy: only an
// injected fault not marked permanent is worth a bounded retry with
// backoff, because only it can change on a rerun. Everything else — bad
// requests, cancellations, panics, permanent injections and solves that
// ran out of cycles — is not. A solve is deterministic in its spec and
// backend, so an unconverged solve would fail the same way again. Panics
// are permanent even when the panic value is a transient injected error:
// a panic's partial execution cannot be assumed safe to repeat blindly,
// and the chaos suite asserts the job fails cleanly instead.
func transientErr(err error) bool {
	var pe *PanicError
	if errors.As(err, &pe) {
		return false
	}
	var fe *faults.Error
	if errors.As(err, &fe) {
		return !fe.Permanent
	}
	return false
}
