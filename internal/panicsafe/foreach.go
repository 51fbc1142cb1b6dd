package panicsafe

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ForEach calls fn(worker, i) once for every i in [0, n) and is the one
// row pool of the pipeline: the blocked distance kernels, the FFT batch,
// the anomaly sweep and the forecast stage all fan out through it.
//
// workers ≤ 0 means GOMAXPROCS; the count is clamped to n. With one worker
// (or n ≤ 1) the indices run in order on the calling goroutine and nothing
// is recovered: a panic in fn unwinds to the caller like any other. With
// more, that many goroutines each loop — read the stop flag, poll ctx,
// claim the next index from a shared counter, run fn — so indices are
// claimed in ascending order and an index is only run after a poll that
// passed. worker ∈ [0, workers) identifies the goroutine and indexes
// per-worker state the caller owns (a scratch buffer, a plan clone): it is
// built by the goroutine that first needs it and released by the caller
// after ForEach returns, by which time every worker has exited.
//
// The first non-nil error stops the pool; the error returned is that of
// the lowest failing index, whichever worker met it first. (The flag is
// read before the claim, so by the time any failure can set it every
// lower index is already claimed and will run.) A panic on a pool worker
// comes back as an *Error carrying its stack. A cancellation returns
// ctx.Err() unless an index failed: before any call if ctx was cancelled
// on entry, within one index per worker otherwise. A context that can
// never be cancelled (Done() == nil, such as context.Background()) is
// never polled.
func ForEach(ctx context.Context, n, workers int, fn func(worker, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	poll := ctx.Done() != nil
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if poll {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	p := &pool{ctx: ctx, poll: poll, n: n, fn: fn, failed: n + 1}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.run(w)
	}
	p.wg.Wait()
	return p.err
}

// pool is the shared state of one pooled ForEach call, held in one struct
// so that a call costs one allocation however many workers it starts.
type pool struct {
	ctx  context.Context
	poll bool
	n    int
	fn   func(worker, i int) error
	next atomic.Int64
	stop atomic.Bool
	wg   sync.WaitGroup

	mu     sync.Mutex
	failed int // lowest failing index so far (n for a cancellation); n+1 while none
	err    error
}

func (p *pool) run(worker int) {
	defer p.wg.Done()
	i := -1
	defer func() {
		if r := recover(); r != nil {
			p.fail(i, &Error{Value: r, Stack: debug.Stack()})
		}
	}()
	for !p.stop.Load() {
		if p.poll {
			if err := p.ctx.Err(); err != nil {
				p.fail(p.n, err) // ranks after every failing index
				return
			}
		}
		if i = int(p.next.Add(1)) - 1; i >= p.n {
			return
		}
		if err := p.fn(worker, i); err != nil {
			p.fail(i, err)
			return
		}
	}
}

// fail records err if i is below every index that failed before it.
func (p *pool) fail(i int, err error) {
	p.mu.Lock()
	if i < p.failed {
		p.failed, p.err = i, err
	}
	p.mu.Unlock()
	p.stop.Store(true)
}
