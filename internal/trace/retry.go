package trace

// retry.go gives file/stream sources bounded tolerance for transient
// I/O errors. Network filesystems and object-store gateways routinely
// surface timeouts or ECONNRESET-shaped errors that succeed on the next
// attempt; without retrying, one blip aborts a multi-hour ingest. The
// RetryReader sits under the CSV readers, replays failed Reads with
// exponential backoff, and counts every absorbed failure so the skip
// stats make a degrading device visible long before it fails hard.

import (
	"context"
	"errors"
	"io"
	"sync/atomic"
	"time"
)

// Retry timing: defaultRetryBackoff is used when a RetryPolicy enables
// retrying but leaves Backoff zero; the doubling always stops at
// defaultRetryMaxBackoff.
const (
	defaultRetryBackoff    = time.Millisecond
	defaultRetryMaxBackoff = 250 * time.Millisecond
)

// RetryPolicy bounds retry-with-backoff for transient errors from an
// underlying reader. The zero value disables retrying.
type RetryPolicy struct {
	// MaxAttempts is the number of retries allowed for one failing Read
	// (consecutive failures; the counter resets on success). <= 0
	// disables retrying.
	MaxAttempts int
	// Backoff is the sleep before the first retry, doubling on every
	// consecutive failure up to defaultRetryMaxBackoff. 0 means
	// defaultRetryBackoff.
	Backoff time.Duration
}

// IsTransient is the retry layer's transient-error classifier: an error is
// retriable when anything in its chain declares itself Temporary() or
// Timeout() — the convention of net.Error and of the fault-injection
// harness. io.EOF and io.ErrUnexpectedEOF are never transient.
func IsTransient(err error) bool {
	if err == nil || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return false
	}
	var temp interface{ Temporary() bool }
	if errors.As(err, &temp) && temp.Temporary() {
		return true
	}
	var to interface{ Timeout() bool }
	if errors.As(err, &to) && to.Timeout() {
		return true
	}
	return false
}

// RetryReader retries transient failures of the wrapped reader with
// exponential backoff, observing ctx while it waits. Reads that return
// data are passed through untouched (the error, if any, resurfaces on
// the next call per io.Reader convention). Safe for the single-consumer
// use of the ingestion readers; Retries is safe to call concurrently.
type RetryReader struct {
	r       io.Reader
	ctx     context.Context
	policy  RetryPolicy
	retries atomic.Int64
}

// NewRetryReader wraps r with the given retry policy. A nil ctx means
// context.Background(). With a zero policy the reader is a pass-through.
func NewRetryReader(ctx context.Context, r io.Reader, policy RetryPolicy) *RetryReader {
	if ctx == nil {
		ctx = context.Background()
	}
	if policy.Backoff <= 0 {
		policy.Backoff = defaultRetryBackoff
	}
	return &RetryReader{r: r, ctx: ctx, policy: policy}
}

// Retries returns how many transient read failures have been absorbed.
func (r *RetryReader) Retries() int64 { return r.retries.Load() }

// Read reads from the wrapped reader, retrying transient zero-byte
// failures up to MaxAttempts times with doubling backoff. Cancellation
// of ctx during a backoff wait returns ctx.Err() immediately.
func (r *RetryReader) Read(p []byte) (int, error) {
	backoff := r.policy.Backoff
	for attempt := 0; ; attempt++ {
		n, err := r.r.Read(p)
		if n > 0 || err == nil || !IsTransient(err) || attempt >= r.policy.MaxAttempts {
			return n, err
		}
		r.retries.Add(1)
		t := time.NewTimer(backoff)
		select {
		case <-t.C:
		case <-r.ctx.Done():
			t.Stop()
			return 0, r.ctx.Err()
		}
		backoff = min(2*backoff, defaultRetryMaxBackoff)
	}
}
