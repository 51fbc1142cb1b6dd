package dsp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/panicsafe"
)

// BatchTransform computes the spectrum of every signal (all of length
// p.N()) across a GOMAXPROCS-wide worker pool and calls fn with each result.
// Each worker transforms with its own clone of the plan, so p itself is not
// touched concurrently.
//
// fn is invoked concurrently from the workers, once per signal, with the
// row index and the spectrum. The spectrum slice is the worker's reusable
// buffer: fn must copy anything it wants to retain, and calls for different
// rows must not share mutable state unless fn synchronises. The first error
// returned by fn (or the lowest-index signal of the wrong length) aborts the
// batch.
func (p *Plan) BatchTransform(signals [][]float64, fn func(row int, spectrum []complex128) error) error {
	return p.BatchTransformContext(context.Background(), signals, fn)
}

// BatchTransformContext is BatchTransform with cancellation and worker
// fault isolation: ctx is observed between signals (a Background context
// costs nothing), and a panic in a worker — in the transform or in fn —
// is returned as a *panicsafe.Error instead of crashing the process. On
// either early exit the pool drains fully before the call returns.
func (p *Plan) BatchTransformContext(ctx context.Context, signals [][]float64, fn func(row int, spectrum []complex128) error) error {
	if fn == nil {
		return fmt.Errorf("dsp: BatchTransform requires a callback")
	}
	for i, x := range signals {
		if len(x) != p.n {
			return fmt.Errorf("dsp: signal %d has %d samples, plan expects %d", i, len(x), p.n)
		}
	}
	done := ctx.Done()
	workers := runtime.GOMAXPROCS(0)
	if workers > len(signals) {
		workers = len(signals)
	}
	if workers <= 1 {
		spectrum := make([]complex128, p.n)
		for i, x := range signals {
			if done != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if err := p.Transform(spectrum, x); err != nil {
				return err
			}
			if err := fn(i, spectrum); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next    atomic.Int64
		aborted atomic.Bool
		errOnce sync.Once
		firstEr error
		wg      sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() { firstEr = err })
		aborted.Store(true)
	}
	for w := 0; w < workers; w++ {
		plan := p
		if w > 0 {
			plan = p.Clone()
		}
		wg.Add(1)
		panicsafe.Go(func() error {
			spectrum := make([]complex128, plan.n)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(signals) || aborted.Load() {
					return nil
				}
				if done != nil && ctx.Err() != nil {
					aborted.Store(true)
					return nil
				}
				if err := plan.Transform(spectrum, signals[i]); err != nil {
					return err
				}
				if err := fn(i, spectrum); err != nil {
					return err
				}
			}
		}, fail, wg.Done)
	}
	wg.Wait()
	if firstEr != nil {
		return firstEr
	}
	if done != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// --- Package-level plan pool ---------------------------------------------

// planPools holds one sync.Pool of *Plan per length, backing AcquirePlan and
// the DFT/IDFT/Reconstruct compatibility wrappers.
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
