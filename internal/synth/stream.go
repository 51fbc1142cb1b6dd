package synth

import (
	"errors"
	"io"
	"iter"

	"repro/internal/trace"
)

// errStreamClosed signals GenerateLogsFunc to stop emitting because the
// consumer abandoned the stream.
var errStreamClosed = errors.New("synth: log stream closed")

// logStreamBatch is how many records the generator coroutine hands over
// per suspension: the coroutine switch is amortised across the batch, so
// the pull side costs a few nanoseconds per record instead of a full
// resume each.
const logStreamBatch = 512

// logItem is one step of the generator coroutine: a batch of records
// (valid until the next pull — the generator reuses the backing array)
// or a terminal generator error.
type logItem struct {
	recs []trace.Record
	err  error
}

// LogStream adapts the push-based GenerateLogsFunc into a pull-based
// trace.Source, so a synthetic city's CDR log can flow straight into the
// streaming cleaner and vectorizer without ever materialising the record
// slice. It is backed by a coroutine (iter.Pull) that yields records in
// batches; call Close to release it if the stream is abandoned before
// io.EOF.
type LogStream struct {
	next func() (logItem, bool)
	stop func()
	cur  []trace.Record
	pos  int
	hint int
	err  error
	done bool
}

// LogSource streams the synthetic CDR log of the given ground-truth
// series, in the same order GenerateLogs would emit it.
func (c *City) LogSource(series []TowerSeries, opts LogOptions) *LogStream {
	seq := func(yield func(logItem) bool) {
		buf := make([]trace.Record, 0, logStreamBatch)
		err := c.GenerateLogsFunc(series, opts, func(r trace.Record) error {
			buf = append(buf, r)
			if len(buf) == cap(buf) {
				if !yield(logItem{recs: buf}) {
					return errStreamClosed
				}
				// The consumer copied what it needed before resuming us;
				// reuse the batch storage.
				buf = buf[:0]
			}
			return nil
		})
		if err != nil && !errors.Is(err, errStreamClosed) {
			// Flush the records emitted before the failure, then the error.
			if len(buf) > 0 && !yield(logItem{recs: buf}) {
				return
			}
			yield(logItem{err: err})
			return
		}
		if err == nil && len(buf) > 0 {
			yield(logItem{recs: buf})
		}
	}
	next, stop := iter.Pull(seq)
	return &LogStream{next: next, stop: stop, hint: c.estimateLogRecords(series, opts)}
}

// estimateLogRecords predicts the emitted log length for preallocation:
// every traffic-carrying slot emits on average (1+MaxRecordsPerSlot)/2
// records, each duplicated or conflicted with the configured
// probabilities. Counting the non-zero slots keeps the estimate
// proportional to the actual emission for sparse traffic (the generator
// skips empty slots). It is a hint, never a bound.
func (c *City) estimateLogRecords(series []TowerSeries, opts LogOptions) int {
	opts = opts.withDefaults()
	active := 0
	for _, s := range series {
		for _, b := range s.Bytes {
			if b > 0 {
				active++
			}
		}
	}
	perSlot := float64(1+opts.MaxRecordsPerSlot) / 2
	perSlot *= 1 + c.Config.DuplicateFraction + c.Config.ConflictFraction
	return int(float64(active) * perSlot)
}

// SizeHint estimates how many records the stream will yield, letting
// collectors preallocate (trace.SizeHinter).
func (s *LogStream) SizeHint() int { return s.hint }

// pull suspends into the generator for the next batch. It reports false
// when the stream is exhausted or failed (s.err set for failures).
func (s *LogStream) pull() bool {
	if s.done {
		return false
	}
	item, ok := s.next()
	if !ok {
		s.Close()
		return false
	}
	if item.err != nil {
		s.err = item.err
		s.Close()
		return false
	}
	s.cur, s.pos = item.recs, 0
	return true
}

// NextBatch copies up to len(dst) generated records into dst; see
// trace.Source for the contract. The terminal error — io.EOF at the end
// of the log, or the generator's error — is sticky.
func (s *LogStream) NextBatch(dst []trace.Record) (int, error) {
	n := 0
	for n < len(dst) {
		if s.pos >= len(s.cur) {
			if !s.pull() {
				return n, s.terminalErr()
			}
			continue
		}
		m := copy(dst[n:], s.cur[s.pos:])
		n += m
		s.pos += m
	}
	return n, nil
}

// Close stops the generator coroutine early and drops any undelivered
// records. Subsequent NextBatch calls return io.EOF (or the generator
// error, if one occurred). Close is idempotent and unnecessary once
// NextBatch has returned a non-nil error.
func (s *LogStream) Close() {
	if !s.done {
		s.done = true
		s.cur = nil
		s.pos = 0
		s.stop()
	}
}

func (s *LogStream) terminalErr() error {
	if s.err != nil {
		return s.err
	}
	return io.EOF
}
