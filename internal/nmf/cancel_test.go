package nmf

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/linalg"
	"repro/internal/testutil"
)

// TestFactorizePreCancelled: a context cancelled before the call does no
// work at either precision, through either entry point.
func TestFactorizePreCancelled(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	rng := rand.New(rand.NewSource(81))
	rows, _ := syntheticMix(rng, 80, 70, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		opts := Options{Rank: 3, Seed: 1, Workers: workers}
		if res, err := FactorizeContext(ctx, rows, opts); !errors.Is(err, context.Canceled) || res != nil {
			t.Errorf("workers %d: FactorizeContext = %v, %v; want nil, context.Canceled", workers, res, err)
		}
		if res, err := FactorizeMatContext(ctx, matOf[float64](rows), opts); !errors.Is(err, context.Canceled) || res != nil {
			t.Errorf("workers %d: float64 = %v, %v; want nil, context.Canceled", workers, res, err)
		}
		if res, err := FactorizeMatContext(ctx, matOf[float32](rows), opts); !errors.Is(err, context.Canceled) || res != nil {
			t.Errorf("workers %d: float32 = %v, %v; want nil, context.Canceled", workers, res, err)
		}
	}
}

// tripContext reports no error for its first tripAt Err calls and
// context.Canceled from then on, counting every call. The factorisation
// and its kernels poll Err (once per iteration, once per strip), so the
// count places a cancellation at an exact point of a run and measures how
// much polling — and therefore how much work — happened after it.
type tripContext struct {
	context.Context
	done   chan struct{}
	tripAt int64
	calls  atomic.Int64
}

func newTripContext(tripAt int64) *tripContext {
	return &tripContext{Context: context.Background(), done: make(chan struct{}), tripAt: tripAt}
}

func (c *tripContext) Done() <-chan struct{} { return c.done }

func (c *tripContext) Err() error {
	if c.calls.Add(1) > c.tripAt {
		return context.Canceled
	}
	return nil
}

// TestFactorizeCancelMidRun cancels half-way through a factorisation, at
// whichever check — between iterations or between strips of a kernel —
// that lands on. The call must return ctx.Err() with no partial result
// well within one iteration: counting from the cancelling check, at most
// one check per pool worker plus the pool's own final one, where a full
// iteration makes dozens. No goroutine outlives the call.
func TestFactorizeCancelMidRun(t *testing.T) {
	t.Run("float64", testFactorizeCancelMidRun[float64])
	t.Run("float32", testFactorizeCancelMidRun[float32])
}

func testFactorizeCancelMidRun[F linalg.Float](t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	rng := rand.New(rand.NewSource(82))
	rows, _ := syntheticMix(rng, 150, 130, 4)
	v := matOf[F](rows)
	for _, workers := range []int{1, 2, 4} {
		opts := Options{Rank: 4, Seed: 2, MaxIterations: 20, Workers: workers}
		full := newTripContext(math.MaxInt64)
		if _, err := FactorizeMatContext(context.Context(full), v, opts); err != nil {
			t.Fatalf("workers %d: uncancelled run: %v", workers, err)
		}
		total := full.calls.Load()
		perIteration := total / int64(opts.MaxIterations)
		if perIteration < 10 {
			t.Fatalf("workers %d: only %d cancellation checks per iteration", workers, perIteration)
		}
		// Sweeping the cancellation over one whole iteration's worth of
		// checks lands it on every check site of the loop (on the serial
		// path exactly once each), the residual kernel's included: an
		// error there must come back as an error, never as convergence.
		for tripAt := total / 2; tripAt <= total/2+perIteration; tripAt++ {
			ctx := newTripContext(tripAt)
			res, err := FactorizeMatContext(context.Context(ctx), v, opts)
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("workers %d, check %d: got %v, %v; want nil, context.Canceled", workers, tripAt, res, err)
			}
			if after := ctx.calls.Load() - tripAt; after > int64(workers)+2 {
				t.Errorf("workers %d, check %d: %d cancellation checks from the cancelling one on, want ≤ %d",
					workers, tripAt, after, workers+2)
			}
		}
	}
}
