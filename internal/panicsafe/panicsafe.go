// Package panicsafe converts panics escaping worker goroutines into
// returned errors. A panic on the main goroutine of a computation
// unwinds to the caller like any other panic; a panic inside a pool
// worker, by contrast, would crash the whole process — no deferred
// recover on the caller's stack can catch it. ForEach is the pipeline's
// one row pool and recovers its workers itself; the goroutines that are
// not row pools (the ingestion chunk reader and parsers, the read-ahead
// producer's pulls, the serve loops and handlers) run their bodies through
// Call, as does the vectorizer's read loop.
// Either way the *panicsafe.Error comes back through the normal error
// return instead of the process dying mid-analysis.
package panicsafe

import (
	"fmt"
	"runtime/debug"
)

// Error carries a recovered panic value together with the stack of the
// goroutine that panicked, so a converted worker panic remains as
// debuggable as the crash it replaces.
type Error struct {
	// Value is the value passed to panic().
	Value any
	// Stack is the formatted stack trace captured at recovery, from
	// runtime/debug.Stack.
	Stack []byte
}

// Error implements the error interface. The stack is included: a worker
// panic converted to an error typically travels far from the goroutine
// that produced it before being logged.
func (e *Error) Error() string {
	return fmt.Sprintf("panic: %v\n\nworker stack:\n%s", e.Value, e.Stack)
}

// Call runs fn, converting a panic into an *Error carrying the panic
// value and the worker's stack. A nil return means fn returned normally
// with a nil error.
func Call(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &Error{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}
