package dsp

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/panicsafe"
)

// BatchTransformContext computes the spectrum of every signal (all of
// length p.N()) and calls fn with each result. The signals fan out over
// panicsafe.ForEach on a GOMAXPROCS-wide pool (see there for the
// cancellation, panic and lowest-index-error contract); each worker after
// the first transforms with its own clone of the plan, so p itself is not
// touched concurrently.
//
// fn is invoked concurrently from the workers, once per signal, with the
// row index and the spectrum. The spectrum slice is the worker's reusable
// buffer: fn must copy anything it wants to retain, and calls for different
// rows must not share mutable state unless fn synchronises. A signal of the
// wrong length fails the batch before any transform runs.
func (p *Plan) BatchTransformContext(ctx context.Context, signals [][]float64, fn func(row int, spectrum []complex128) error) error {
	if fn == nil {
		return fmt.Errorf("dsp: BatchTransformContext requires a callback")
	}
	for i, x := range signals {
		if len(x) != p.n {
			return fmt.Errorf("dsp: signal %d has %d samples, plan expects %d", i, len(x), p.n)
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(signals))
	type state struct {
		plan     *Plan
		spectrum []complex128
	}
	states := make([]state, max(workers, 1))
	return panicsafe.ForEach(ctx, len(signals), workers, func(w, i int) error {
		st := &states[w]
		if st.plan == nil {
			st.plan = p
			if w > 0 {
				st.plan = p.Clone()
			}
			st.spectrum = make([]complex128, p.n)
		}
		if err := st.plan.Transform(st.spectrum, signals[i]); err != nil {
			return err
		}
		return fn(i, st.spectrum)
	})
}

// --- Package-level plan pool ---------------------------------------------

// planPools holds one sync.Pool of *Plan per length, backing AcquirePlan.
var planPools sync.Map // int -> *sync.Pool

func poolFor(n int) *sync.Pool {
	if v, ok := planPools.Load(n); ok {
		return v.(*sync.Pool)
	}
	v, _ := planPools.LoadOrStore(n, &sync.Pool{})
	return v.(*sync.Pool)
}

// AcquirePlan returns a plan for length n from a package-level pool,
// building one only when the pool is empty. Call Release to hand the plan
// back when done; a released plan's twiddle tables are reused by later
// acquisitions, so steady-state acquire/transform/release cycles allocate
// nothing beyond the caller's output buffers. Callers that transform many
// signals of one length on a hot path should instead hold a plan from
// NewPlan for its whole lifetime.
func AcquirePlan(n int) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dsp: invalid plan length %d", n)
	}
	if p, ok := poolFor(n).Get().(*Plan); ok {
		return p, nil
	}
	return NewPlan(n)
}

// Release returns the plan to the package-level pool for its length. The
// caller must not use the plan afterwards.
func (p *Plan) Release() {
	poolFor(p.n).Put(p)
}
