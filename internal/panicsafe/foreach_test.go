package panicsafe_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dsp"
	"repro/internal/linalg"
	"repro/internal/nmf"
	"repro/internal/panicsafe"
	"repro/internal/testutil"
)

// tripContext reports no error for its first tripAt Err calls and
// context.Canceled from then on — or panics with boom, when set — counting
// every call. ForEach polls Err once before each index, on the goroutine
// that will run it, so the count places a cancellation (or a worker panic)
// at an exact index and bounds how much work happened after it.
type tripContext struct {
	context.Context
	done   chan struct{}
	tripAt int64
	boom   any
	calls  atomic.Int64
}

func newTripContext(tripAt int64) *tripContext {
	return &tripContext{Context: context.Background(), done: make(chan struct{}), tripAt: tripAt}
}

func (c *tripContext) Done() <-chan struct{} { return c.done }

func (c *tripContext) Err() error {
	if c.calls.Add(1) > c.tripAt {
		if c.boom != nil {
			panic(c.boom)
		}
		return context.Canceled
	}
	return nil
}

// neverDone is a context that cannot be cancelled but would notice being
// asked: ForEach must not poll it.
type neverDone struct {
	context.Context
	polls atomic.Int64
}

func (c *neverDone) Done() <-chan struct{} { return nil }
func (c *neverDone) Err() error            { c.polls.Add(1); return nil }

// The pool contract, once, for every stage that fans out through ForEach.
func TestForEachContract(t *testing.T) {
	workerCounts := []int{1, 2, 4, 0}

	t.Run("every index once, worker ids in range", func(t *testing.T) {
		testutil.CheckNoGoroutineLeak(t)
		for _, workers := range workerCounts {
			for _, n := range []int{0, 1, 3, 100} {
				want := workers
				if want <= 0 {
					want = runtime.GOMAXPROCS(0)
				}
				want = max(min(want, n), 1)
				seen := make([]atomic.Int32, n)
				var badWorker atomic.Int32
				err := panicsafe.ForEach(context.Background(), n, workers, func(w, i int) error {
					if w < 0 || w >= want {
						badWorker.Store(int32(w) + 1)
					}
					seen[i].Add(1)
					return nil
				})
				if err != nil {
					t.Fatalf("workers %d n %d: %v", workers, n, err)
				}
				if w := badWorker.Load(); w != 0 {
					t.Errorf("workers %d n %d: worker id %d outside [0, %d)", workers, n, w-1, want)
				}
				for i := range seen {
					if c := seen[i].Load(); c != 1 {
						t.Errorf("workers %d n %d: index %d ran %d times", workers, n, i, c)
					}
				}
			}
		}
	})

	t.Run("indices are claimed in ascending order", func(t *testing.T) {
		testutil.CheckNoGoroutineLeak(t)
		// Each worker sees its own indices ascending; with one worker that
		// is the whole range in order, on the calling goroutine.
		for _, workers := range workerCounts {
			last := make([]int, 64)
			for w := range last {
				last[w] = -1
			}
			var outOfOrder atomic.Bool
			err := panicsafe.ForEach(context.Background(), 500, workers, func(w, i int) error {
				if i <= last[w] {
					outOfOrder.Store(true)
				}
				last[w] = i
				return nil
			})
			if err != nil || outOfOrder.Load() {
				t.Errorf("workers %d: err %v, out of order %v", workers, err, outOfOrder.Load())
			}
		}
	})

	t.Run("pre-cancelled: ctx.Err and zero calls", func(t *testing.T) {
		testutil.CheckNoGoroutineLeak(t)
		for _, workers := range []int{1, 4} {
			ctx := newTripContext(0)
			var calls atomic.Int64
			err := panicsafe.ForEach(ctx, 16, workers, func(int, int) error { calls.Add(1); return nil })
			if !errors.Is(err, context.Canceled) || calls.Load() != 0 {
				t.Errorf("workers %d: err %v after %d calls, want context.Canceled and none", workers, err, calls.Load())
			}
			if polls := ctx.calls.Load(); polls > int64(workers) {
				t.Errorf("workers %d: %d polls, want ≤ one per worker", workers, polls)
			}
		}
	})

	t.Run("cancel mid-run: within one index per worker", func(t *testing.T) {
		testutil.CheckNoGoroutineLeak(t)
		const tripAt = 9
		for _, workers := range []int{1, 2, 4} {
			ctx := newTripContext(tripAt)
			var calls atomic.Int64
			err := panicsafe.ForEach(ctx, 64, workers, func(int, int) error { calls.Add(1); return nil })
			if !errors.Is(err, context.Canceled) {
				t.Errorf("workers %d: err %v, want context.Canceled", workers, err)
			}
			// An index runs only after a poll that passed, and after the
			// trip each worker polls at most once more.
			if c := calls.Load(); c > tripAt {
				t.Errorf("workers %d: %d indices ran, want ≤ %d", workers, c, tripAt)
			}
			if polls := ctx.calls.Load(); polls > tripAt+int64(workers) {
				t.Errorf("workers %d: %d polls, want ≤ %d", workers, polls, tripAt+workers)
			}
		}
	})

	t.Run("a context that cannot be cancelled is never polled", func(t *testing.T) {
		testutil.CheckNoGoroutineLeak(t)
		for _, workers := range []int{1, 4} {
			ctx := &neverDone{Context: context.Background()}
			if err := panicsafe.ForEach(ctx, 32, workers, func(int, int) error { return nil }); err != nil {
				t.Fatal(err)
			}
			if p := ctx.polls.Load(); p != 0 {
				t.Errorf("workers %d: %d polls of a context with a nil Done channel", workers, p)
			}
		}
	})

	t.Run("worker panic: *Error with the stack, pool drained", func(t *testing.T) {
		testutil.CheckNoGoroutineLeak(t)
		err := panicsafe.ForEach(context.Background(), 32, 4, func(_, i int) error {
			if i == 5 {
				panic("index 5 exploded")
			}
			return nil
		})
		var pe *panicsafe.Error
		if !errors.As(err, &pe) || pe.Value != "index 5 exploded" {
			t.Fatalf("err = %v, want a *panicsafe.Error carrying the panic value", err)
		}
		if !strings.Contains(string(pe.Stack), "foreach_test.go") {
			t.Errorf("stack does not reach the panicking callback:\n%s", pe.Stack)
		}
	})

	t.Run("one worker: a panic unwinds on the calling goroutine", func(t *testing.T) {
		testutil.CheckNoGoroutineLeak(t)
		defer func() {
			if r := recover(); r != "inline" {
				t.Errorf("recovered %v, want the panic itself", r)
			}
		}()
		err := panicsafe.ForEach(context.Background(), 8, 1, func(_, i int) error {
			if i == 3 {
				panic("inline")
			}
			return nil
		})
		t.Errorf("ForEach returned (%v) instead of panicking", err)
	})
}

// When several indices fail, the error is the lowest one's — for every
// worker count, every run: a lower index is always claimed before a higher
// one can raise the stop flag. (At the parent commit each pool returned
// whichever failure latched first.)
func TestForEachLowestIndexErrorWins(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	for _, bad := range [][2]int{{10, 11}, {3, 60}} {
		for _, workers := range []int{1, 2, 4, 0} {
			for run := 0; run < 500; run++ {
				err := panicsafe.ForEach(context.Background(), 64, workers, func(_, i int) error {
					if i == bad[0] || i == bad[1] {
						return fmt.Errorf("index %d", i)
					}
					return nil
				})
				if want := fmt.Sprintf("index %d", bad[0]); err == nil || err.Error() != want {
					t.Fatalf("bad %v workers %d run %d: err = %v, want %q", bad, workers, run, err, want)
				}
			}
		}
	}
}

// The real call sites inherit the contract. A panic on one of their pool
// workers (injected through the context poll, which runs on the worker)
// comes back as a *panicsafe.Error and no goroutine outlives the call.
func TestPoolContractAtCallSites(t *testing.T) {
	x := linalg.NewMatrix(200, 8)
	for i := range x.Data {
		x.Data[i] = float64(i%17) - 8
	}
	signals := make([][]float64, 32)
	for i := range signals {
		signals[i] = x.Data[i*48 : (i+1)*48]
	}
	plan, err := dsp.NewPlan(48)
	if err != nil {
		t.Fatal(err)
	}
	nonNegative := linalg.NewMatrix(x.Rows, x.Cols)
	for i, v := range x.Data {
		nonNegative.Data[i] = max(v, -v)
	}
	sites := []struct {
		name string
		// passes is the number of polls that succeed first: enough to be
		// past the ones the site makes on the calling goroutine.
		passes int64
		call   func(ctx context.Context) error
	}{
		{"linalg.PairwiseSquaredCondensedCtx", 2, func(ctx context.Context) error {
			return linalg.PairwiseSquaredCondensedCtx(ctx, make([]float64, 200*199/2), x, nil, 4)
		}},
		{"linalg.CrossDotIntoCtx", 2, func(ctx context.Context) error {
			return linalg.CrossDotIntoCtx(ctx, linalg.NewMatrix(200, 200), x, x, 4)
		}},
		{"dsp.BatchTransformContext", 2, func(ctx context.Context) error {
			return plan.BatchTransformContext(ctx, signals, func(int, []complex128) error { return nil })
		}},
		// The factorisation's strip pass (W update + residual, 7 strips of
		// these 200 rows) is its first pooled dispatch here: three polls
		// come before it, all on the caller — the transpose's entry check,
		// the iteration's, and the one strip of the 8-row Wᵀ·V product,
		// which runs inline.
		{"nmf.FactorizeMatContext", 3, func(ctx context.Context) error {
			_, err := nmf.FactorizeMatContext(ctx, nonNegative, nmf.Options{Rank: 3, Seed: 1, Workers: 4})
			return err
		}},
	}
	for _, site := range sites {
		t.Run(site.name, func(t *testing.T) {
			if site.name == "dsp.BatchTransformContext" && runtime.GOMAXPROCS(0) < 2 {
				t.Skip("the FFT batch pool is GOMAXPROCS wide: one proc runs it inline")
			}
			testutil.CheckNoGoroutineLeak(t)
			ctx := newTripContext(site.passes)
			ctx.boom = site.name + " exploded"
			var pe *panicsafe.Error
			if err := site.call(ctx); !errors.As(err, &pe) || pe.Value != ctx.boom {
				t.Fatalf("err = %v, want a *panicsafe.Error carrying %q", err, ctx.boom)
			}
		})
	}
}

// The same lowest-index rule on a stage that gets it from the helper: the
// first bad callback of an FFT batch names the error, whatever the
// schedule.
func TestBatchTransformLowestIndexErrorWins(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	plan, err := dsp.NewPlan(16)
	if err != nil {
		t.Fatal(err)
	}
	signals := make([][]float64, 64)
	for i := range signals {
		signals[i] = make([]float64, 16)
	}
	for run := 0; run < 500; run++ {
		err := plan.BatchTransformContext(context.Background(), signals, func(row int, _ []complex128) error {
			if row == 10 || row == 11 {
				return fmt.Errorf("row %d", row)
			}
			return nil
		})
		if err == nil || err.Error() != "row 10" {
			t.Fatalf("run %d: err = %v, want row 10", run, err)
		}
	}
}
