package trace

// context.go is where a source pipeline observes context.Context.
// Sources are synchronous pulls, so cancellation is observed at batch
// granularity: every NextBatch of a CtxSource checks ctx before touching
// the underlying source, which keeps the zero-allocation batch loops
// intact (one channel-free comparison per batch of up to 2048 records)
// while still bounding how much work a cancelled pipeline performs.
// Background contexts short-circuit: ctx.Done() == nil skips the checks
// entirely.

import (
	"context"
	"errors"
	"io"
)

// CtxSource wraps a Source so that every pull observes a context. After
// cancellation NextBatch returns ctx.Err() (sticky). It forwards the
// skip-accounting and Close surfaces of the wrapped source where
// present, so wrapping an IngestSource yields an IngestSource.
type CtxSource struct {
	ctx  context.Context
	done <-chan struct{}
	src  Source
	err  error
}

// WithContext wraps src so NextBatch observes ctx before every pull. A
// nil ctx or context.Background() adds no per-batch cost.
func WithContext(ctx context.Context, src Source) *CtxSource {
	if ctx == nil {
		ctx = context.Background()
	}
	return &CtxSource{ctx: ctx, done: ctx.Done(), src: src}
}

// check latches and returns the terminal cancellation error, if any.
func (c *CtxSource) check() error {
	if c.err != nil {
		return c.err
	}
	if c.done != nil {
		if err := c.ctx.Err(); err != nil {
			c.err = err
			return err
		}
	}
	return nil
}

// NextBatch fills dst from the wrapped source, checking ctx first; see
// Source for the contract.
func (c *CtxSource) NextBatch(dst []Record) (int, error) {
	if err := c.check(); err != nil {
		return 0, err
	}
	n, err := c.src.NextBatch(dst)
	if err != nil && !errors.Is(err, io.EOF) {
		c.err = err
	}
	return n, err
}

// Stats forwards the wrapped source's per-category skip stats, or zero.
func (c *CtxSource) Stats() SkipStats {
	if s, ok := c.src.(interface{ Stats() SkipStats }); ok {
		return s.Stats()
	}
	return SkipStats{}
}

// Close forwards to the wrapped source's Close, if it has one.
func (c *CtxSource) Close() {
	if cl, ok := c.src.(interface{ Close() }); ok {
		cl.Close()
	}
}

// CleanSourceContext is CleanSource over WithContext. It is a shim pinned
// by bench/layers.go, to retire with Batched.
func CleanSourceContext(ctx context.Context, src Source) *CleanedSource {
	return CleanSource(WithContext(ctx, src))
}
