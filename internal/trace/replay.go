package trace

// replay.go paces a record stream against the wall clock, turning a
// recorded trace (or a synthetic log) into a live feed: the building
// block that lets the always-on analysis service replay history as if it
// were arriving from the network. Pacing is driven by the records' own
// Start timestamps, so bursty traces replay bursty.

import (
	"context"
	"time"
)

// ReplaySource delivers the records of an underlying source no faster
// than a scaled version of their original timeline. The record whose
// Start timestamp lies Δ after the first record's is delivered no
// earlier than Δ/speed of wall time after the first delivery; speed 1
// replays in real time, speed 3600 compresses an hour of trace into one
// second, and speed <= 0 disables pacing entirely (pure passthrough).
//
// Pacing is at delivery granularity: a batch is released when its last
// record is due, so callers wanting fine-grained pacing should pull
// small batches. Timestamps are assumed non-decreasing (the order every
// producer in this repo emits); out-of-order records are delivered
// without extra delay rather than rewinding the clock.
//
// Cancelling ctx wakes any in-flight pacing sleep immediately — the woken
// pull hands over the records it had already consumed — and makes every
// later pull return ctx.Err() (sticky), so an ingest loop blocked on a
// slow replay drains promptly on shutdown.
type ReplaySource struct {
	src     Source
	ctx     context.Context
	speed   float64
	base    time.Time // trace time of the first record seen
	wall    time.Time // wall time the replay clock started
	started bool
	err     error
}

// NewReplaySource wraps src with timestamp pacing at the given speed
// factor. A nil ctx means context.Background().
func NewReplaySource(ctx context.Context, src Source, speed float64) *ReplaySource {
	if ctx == nil {
		ctx = context.Background()
	}
	return &ReplaySource{src: src, ctx: ctx, speed: speed}
}

// pace blocks until the record stamped at trace time ts is due (or ctx
// ends). The first record anchors the replay clock.
func (r *ReplaySource) pace(ts time.Time) error {
	if r.speed <= 0 || ts.IsZero() {
		return nil
	}
	if !r.started {
		r.started = true
		r.base = ts
		r.wall = time.Now()
		return nil
	}
	elapsed := ts.Sub(r.base)
	if elapsed <= 0 {
		return nil
	}
	due := r.wall.Add(time.Duration(float64(elapsed) / r.speed))
	wait := time.Until(due)
	if wait <= 0 {
		return nil
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-r.ctx.Done():
		return r.ctx.Err()
	}
}

// check latches cancellation and prior terminal errors.
func (r *ReplaySource) check() error {
	if r.err != nil {
		return r.err
	}
	if err := r.ctx.Err(); err != nil {
		r.err = err
		return err
	}
	return nil
}

// NextBatch implements Source. The batch is released when its last
// record is due; the records themselves are untouched, so an unpaced
// ReplaySource is record-identical to the wrapped source.
func (r *ReplaySource) NextBatch(dst []Record) (int, error) {
	if err := r.check(); err != nil {
		return 0, err
	}
	n, err := r.src.NextBatch(dst)
	if err != nil {
		r.err = err
	}
	if n > 0 {
		if perr := r.pace(dst[n-1].Start); perr != nil {
			// The records were already consumed from the source; deliver
			// them so none are lost, and fail the following call.
			r.err = perr
			return n, nil
		}
	}
	return n, err
}

// Stats forwards to the wrapped source.
func (r *ReplaySource) Stats() SkipStats {
	if st, ok := r.src.(interface{ Stats() SkipStats }); ok {
		return st.Stats()
	}
	return SkipStats{}
}
