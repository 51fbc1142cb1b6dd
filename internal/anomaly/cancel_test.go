package anomaly

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/linalg"
	"repro/internal/panicsafe"
	"repro/internal/testutil"
)

// tripContext reports no error for its first tripAt Err calls and
// context.Canceled from then on — or panics with boom, when set — counting
// every call. The sweep polls Err once before each tower, on the goroutine
// that will process it, so the count places a cancellation (or a worker
// panic) at an exact tower and bounds how much work happened after it.
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

// A context cancelled before the call processes no tower: every worker's
// first poll fails.
func TestDetectAllContextPreCancelled(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	towers := mixedTowers(rand.New(rand.NewSource(99)), 16)
	for _, workers := range []int{1, 4} {
		ctx := newTripContext(0)
		reports, err := DetectAllContext(ctx, towers, days, Options{}, workers)
		if !errors.Is(err, context.Canceled) || reports != nil {
			t.Errorf("workers %d: DetectAllContext = %v, %v; want nil, context.Canceled", workers, reports, err)
		}
		if calls := ctx.calls.Load(); calls > int64(workers) {
			t.Errorf("workers %d: %d polls after a pre-cancelled context, want ≤ one per worker", workers, calls)
		}
	}
}

// A cancellation mid-sweep stops within one tower per worker: after the
// trip each worker polls at most once more, and a tower is only processed
// after a poll that passed.
func TestDetectAllContextCancelMidRun(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	towers := mixedTowers(rand.New(rand.NewSource(100)), 64)
	const tripAt = 9
	for _, workers := range []int{1, 2, 4} {
		ctx := newTripContext(tripAt)
		reports, err := DetectAllContext(ctx, towers, days, Options{}, workers)
		if !errors.Is(err, context.Canceled) || reports != nil {
			t.Errorf("workers %d: DetectAllContext = %v, %v; want nil, context.Canceled", workers, reports, err)
		}
		if calls := ctx.calls.Load(); calls > tripAt+int64(workers) {
			t.Errorf("workers %d: %d polls, want ≤ %d (the trip plus one per worker)", workers, calls, tripAt+workers)
		}
	}
}

// A panic on a pool worker comes back as a *panicsafe.Error with the pool
// drained; with one worker the sweep runs on the calling goroutine, so the
// same panic unwinds to the caller like any other.
func TestDetectAllContextWorkerPanic(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	towers := mixedTowers(rand.New(rand.NewSource(101)), 32)

	ctx := newTripContext(5)
	ctx.boom = "tower 5 exploded"
	reports, err := DetectAllContext(ctx, towers, days, Options{}, 4)
	var pe *panicsafe.Error
	if !errors.As(err, &pe) || pe.Value != ctx.boom || reports != nil {
		t.Fatalf("workers 4: DetectAllContext = %v, %v; want nil and a *panicsafe.Error carrying %q", reports, err, ctx.boom)
	}

	inline := newTripContext(5)
	inline.boom = "tower 5 exploded inline"
	defer func() {
		if r := recover(); r != inline.boom {
			t.Errorf("workers 1: recovered %v on the calling goroutine, want %q", r, inline.boom)
		}
	}()
	_, err = DetectAllContext(inline, towers, days, Options{}, 1)
	t.Errorf("workers 1: DetectAllContext returned (%v) instead of panicking on the calling goroutine", err)
}

// When several towers of a sweep are unusable, the error names the lowest
// of them, whatever the worker count and however the workers interleave —
// an operator chasing a multi-fault sweep is told the same tower every
// time. (With a first-error latch per pool, 4 workers named row 11 instead
// of row 10 in about 2 % of runs.)
func TestDetectAllLowestIndexErrorWins(t *testing.T) {
	testutil.CheckNoGoroutineLeak(t)
	// A week of hourly slots per tower keeps 4 000 sweeps quick under -race.
	const weekDays, slots = 7, 7 * 24
	rng := rand.New(rand.NewSource(102))
	for _, bad := range [][2]int{{10, 11}, {3, 60}} {
		towers := make([]linalg.Vector, 64)
		for i := range towers {
			towers[i] = make(linalg.Vector, slots)
			for j := range towers[i] {
				towers[i][j] = 100 + 50*math.Sin(2*math.Pi*float64(j)/24) + rng.Float64()
			}
		}
		for _, row := range bad {
			towers[row][7] = math.NaN()
		}
		want := fmt.Sprintf("anomaly: tower %d:", bad[0])
		for _, workers := range []int{1, 2, 4, 0} {
			for run := 0; run < 500; run++ {
				reports, err := DetectAllContext(context.Background(), towers, weekDays, Options{}, workers)
				if reports != nil || err == nil || !strings.HasPrefix(err.Error(), want) {
					t.Fatalf("rows %v workers %d run %d: DetectAllContext = %v, %v; want an error starting %q",
						bad, workers, run, reports, err, want)
				}
			}
		}
	}
}
