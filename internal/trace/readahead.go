package trace

// readahead.go is the one place a source pipeline gains a second
// goroutine: ReadAhead pulls a source on a producer goroutine a fixed
// number of batches ahead of whoever consumes it, so decoding overlaps
// with the stages downstream (cleaning, windowing) instead of alternating
// with them on one core.

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/panicsafe"
)

// ReadAheadWaits accumulates, in nanoseconds, how long each side of a
// read-ahead stage was blocked on the other. Whichever grows names the
// slower stage: Consumer is time spent in NextBatch with no pulled batch
// ready (the source is the bottleneck), Producer is time spent with every
// buffer full (the consumer is). Only blocked pulls read the clock.
type ReadAheadWaits struct {
	Consumer, Producer atomic.Int64
}

// errReadAheadClosed is what a ReadAheadSource returns once closed.
var errReadAheadClosed = errors.New("trace: read-ahead source is closed")

// aheadBatch is one pull of the wrapped source, as the producer saw it.
type aheadBatch struct {
	buf *[]Record
	n   int
	err error
}

// ReadAheadSource is a Source that pulls the source it wraps on its own
// goroutine, ReadAheadDepth batches ahead of its consumer. Create with
// ReadAhead and Close when done.
//
// It keeps the Source contract of what it wraps: records come out in the
// order they were pulled, whatever the sizes of the consumer's pulls; a
// terminal error (io.EOF included) comes out after every record pulled
// before it, with the last of them, and is sticky; a pull that returned
// no records and no error is skipped. A panic inside the wrapped source's
// NextBatch is recovered on the producer and comes out as a
// *panicsafe.Error — the records that pull was writing are dropped — so
// the consumer's goroutine fails the way it would have had it pulled the
// source itself. The producer stops pulling at the first error.
//
// NextBatch and Close belong to one consumer goroutine. The wrapped
// source is only ever touched by the producer.
type ReadAheadSource struct {
	bufs  [ReadAheadDepth]*[]Record // the rotation, pooled
	ready chan aheadBatch           // pulled batches in source order; closed when the producer exits
	free  chan *[]Record            // drained buffers on their way back to the producer
	stop  chan struct{}             // closed by Close
	waits *ReadAheadWaits

	// Consumer-side state: the batch being handed out and how much of it
	// already was, the sticky terminal error, and whether Close ran.
	cur    aheadBatch
	off    int
	err    error
	closed bool
}

// ReadAhead starts pulling src on a new goroutine and returns the source
// that hands those batches out. The rotation of ReadAheadDepth pooled
// buffers is taken once here and returned by Close: the steady state
// allocates nothing. waits, when non-nil, receives the blocked time of
// both sides. The caller must Close the returned source; src itself is
// not closed.
func ReadAhead(src Source, waits *ReadAheadWaits) *ReadAheadSource {
	if waits == nil {
		waits = new(ReadAheadWaits)
	}
	r := &ReadAheadSource{
		// Both queues hold every buffer of the rotation, so neither a
		// hand-over nor a return ever blocks on the channel itself.
		ready: make(chan aheadBatch, ReadAheadDepth),
		free:  make(chan *[]Record, ReadAheadDepth),
		stop:  make(chan struct{}),
		waits: waits,
	}
	for i := range r.bufs {
		r.bufs[i] = GetBatch()
		r.free <- r.bufs[i]
	}
	go r.produce(src)
	return r
}

// produce is the producer goroutine: take a free buffer, fill it from
// src, hand it over; until the first error or Close.
func (r *ReadAheadSource) produce(src Source) {
	defer close(r.ready)
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		var b aheadBatch
		select {
		case b.buf = <-r.free:
		default:
			began := time.Now()
			select {
			case b.buf = <-r.free:
				r.waits.Producer.Add(int64(time.Since(began)))
			case <-r.stop:
				return
			}
		}
		// A panic leaves b.n at zero: a half-written batch is not delivered.
		b.err = panicsafe.Call(func() (err error) {
			b.n, err = src.NextBatch(*b.buf)
			return err
		})
		r.ready <- b
		if b.err != nil {
			return
		}
	}
}

// NextBatch implements Source over the batches the producer has pulled.
func (r *ReadAheadSource) NextBatch(dst []Record) (int, error) {
	for {
		if r.cur.buf == nil {
			if r.err != nil || len(dst) == 0 {
				return 0, r.err
			}
			select {
			case r.cur = <-r.ready:
			default:
				began := time.Now()
				r.cur = <-r.ready
				r.waits.Consumer.Add(int64(time.Since(began)))
			}
			r.off = 0
		}
		n := copy(dst, (*r.cur.buf)[r.off:r.cur.n])
		r.off += n
		if r.off < r.cur.n {
			return n, nil
		}
		// Drained: the buffer goes back into the rotation and the error
		// the pull ended with, if any, surfaces with its last records.
		err := r.cur.err
		r.free <- r.cur.buf
		r.cur = aheadBatch{}
		if err != nil {
			r.err = err
			return n, err
		}
		if n > 0 {
			return n, nil
		}
	}
}

// Close stops the producer, waits for it to exit and returns the buffers
// to the pool; batches pulled but not yet handed out are dropped. The
// producer notices the stop between pulls, so Close returns as promptly
// as the wrapped source's NextBatch does — a source that blocks must
// honour a context or be unblocked by its owner. Later NextBatch calls
// fail. Close is idempotent.
func (r *ReadAheadSource) Close() {
	if r.closed {
		return
	}
	r.closed = true
	close(r.stop)
	for range r.ready { // until the producer closes it on exit
	}
	if r.err == nil {
		r.err = errReadAheadClosed
	}
	r.cur = aheadBatch{}
	for _, b := range r.bufs {
		PutBatch(b)
	}
}
