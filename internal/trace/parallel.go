package trace

// parallel.go parallelises CSV ingestion across cores while keeping the
// record stream deterministic. The input is split at record boundaries
// into large chunks, each chunk is parsed by a pooled worker running the
// zero-allocation Scanner over its bytes, and the parsed batches are
// reassembled in input order — so cleaning, vectorisation and the golden
// end-to-end fixtures observe exactly the byte order of the file no
// matter how many workers raced on it.
//
// Chunk boundaries are found by running the same quoting state machine
// the row parser uses — quotes open fields only at field starts, bare
// quotes inside unquoted fields are content of a row the parser will
// reject and resynchronise after, quoted fields may contain newlines —
// so a newline is marked as a record boundary exactly when the serial
// scanner would start a fresh row there, for malformed input as much as
// for well-formed input.
//
// Fault tolerance: the chunk reader and every parse worker run under
// panic recovery (a panic surfaces as an ordered error chunk, not a
// process crash), cancellation of the construction context is observed
// at chunk granularity by the reader, the consumer and the dispatch
// hand-off, and the consumer rebases chunk-relative error positions
// (line + byte offset) onto the whole stream, so fail-fast errors from a
// worker locate the offending row in the file, not in the chunk.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/panicsafe"
)

const (
	// parallelChunkSize is the target chunk payload handed to one worker:
	// big enough that parse time dwarfs the per-chunk channel handoff,
	// small enough to keep a few chunks per worker in flight.
	parallelChunkSize = 256 << 10
	// chunkRecordsCap sizes the pooled per-chunk record slices for the
	// typical row length; chunks with shorter rows grow them once.
	chunkRecordsCap = 4096
)

// IngestSource is the common surface of the CSV ingestion readers:
// batched record access, per-category malformed-row accounting, and Close
// for releasing background resources when a stream is abandoned before
// io.EOF (a no-op for the serial Scanner, mandatory cleanup for the
// goroutine-backed ParallelCSVSource).
type IngestSource interface {
	Source
	Stats() SkipStats
	Close()
}

// NewIngestSourceContext returns the fastest CSV reader for the given
// worker count: the serial zero-allocation Scanner for one worker
// (including workers <= 0 resolving to GOMAXPROCS on a single-core
// machine, where the chunk handoff would only cost), or a
// ParallelCSVSource fanning chunk parsing across workers goroutines. It
// takes the ingestion error policy and observes ctx at batch granularity
// on the serial path and chunk granularity on the parallel path; when
// policy.Retry enables retrying, the reader is wrapped in a RetryReader
// and the absorbed transient failures appear in Stats().IORetries.
func NewIngestSourceContext(ctx context.Context, r io.Reader, workers int, policy ErrorPolicy) (IngestSource, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var rr *RetryReader
	if policy.Retry.MaxAttempts > 0 {
		rr = NewRetryReader(ctx, r, policy.Retry)
		r = rr
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var src IngestSource
	if workers == 1 {
		sc, err := NewScannerPolicy(r, policy)
		if err != nil {
			return nil, err
		}
		if ctx.Done() == nil && rr == nil {
			return sc, nil
		}
		src = WithContext(ctx, sc)
	} else {
		p, err := newParallelCSVSourceOpts(ctx, r, workers, parallelChunkSize, policy)
		if err != nil {
			return nil, err
		}
		src = p
	}
	if rr != nil {
		src = &retryStatsSource{IngestSource: src, rr: rr}
	}
	return src, nil
}

// retryStatsSource folds the RetryReader's absorbed-failure count into
// the wrapped source's skip stats.
type retryStatsSource struct {
	IngestSource
	rr *RetryReader
}

func (s *retryStatsSource) Stats() SkipStats {
	st := s.IngestSource.Stats()
	st.IORetries += s.rr.Retries()
	return st
}

// boundaryState is the chunker's position in the CSV quoting state
// machine, mirroring how the serial row parser consumes lines.
type boundaryState uint8

const (
	boundaryFieldStart boundaryState = iota // at the start of a field (or record)
	boundaryUnquoted                        // inside an unquoted field
	boundaryQuoted                          // inside a quoted field (newlines are content)
	boundaryQuoteQuote                      // just saw a '"' inside a quoted field
	boundaryRawSkip                         // discarding an errored row's remaining line, quotes and all
)

// scanBoundaries advances the quoting state machine over data, returning
// the final state, the bytes consumed (always len(data) unless the data
// ends inside a run that cannot change state) and the updated lastSafe:
// base+i+1 for the last newline at which the serial scanner would start
// a fresh record.
//
// The machine replays exactly how the row parser consumes input: a
// quote opens a field only at a field start; a bare quote inside an
// unquoted field — or junk after a closing quote — makes the parser
// reject the row and discard the REST OF THAT LINE as raw text
// (boundaryRawSkip), so no later quote on the errored line can reopen a
// field; quoted fields may span newlines. One malformed row therefore
// never poisons boundary detection for the rows after it. Runs are
// skipped with vectorised IndexByte scans.
func scanBoundaries(data []byte, state boundaryState, lastSafe, base int) (boundaryState, int, int) {
	i := 0
	n := len(data)
	for i < n {
		switch state {
		case boundaryQuoted:
			j := bytes.IndexByte(data[i:], '"')
			if j < 0 {
				return state, n, lastSafe
			}
			i += j + 1
			state = boundaryQuoteQuote
		case boundaryQuoteQuote:
			switch data[i] {
			case '"':
				state = boundaryQuoted // "" escape
			case ',':
				state = boundaryFieldStart
			case '\n':
				lastSafe = base + i + 1
				state = boundaryFieldStart
			default:
				state = boundaryRawSkip // csv's ErrQuote: drop the rest of the line
			}
			i++
		case boundaryRawSkip:
			j := bytes.IndexByte(data[i:], '\n')
			if j < 0 {
				return state, n, lastSafe
			}
			i += j + 1
			lastSafe = base + i
			state = boundaryFieldStart
		default: // boundaryFieldStart, boundaryUnquoted
			// Scan the current line up to its first quote. A quote-free
			// line is all plain fields: its newline is a boundary and
			// nothing else in it matters.
			j := bytes.IndexByte(data[i:], '\n')
			lineEnd := n - i
			if j >= 0 {
				lineEnd = j
			}
			q := bytes.IndexByte(data[i:i+lineEnd], '"')
			if q < 0 {
				if j < 0 {
					// Partial line at the end of the data: the resume
					// state depends only on whether a field just ended.
					if data[n-1] == ',' {
						state = boundaryFieldStart
					} else {
						state = boundaryUnquoted
					}
					return state, n, lastSafe
				}
				i += j + 1
				lastSafe = base + i
				state = boundaryFieldStart
				continue
			}
			// The quote opens a field only at a field start: directly
			// after a comma, or first on the line with no field content
			// before it. Anything else is csv's ErrBareQuote, after
			// which the parser discards the rest of the line raw.
			opening := (q == 0 && state == boundaryFieldStart) || (q > 0 && data[i+q-1] == ',')
			i += q + 1
			if opening {
				state = boundaryQuoted
			} else {
				state = boundaryRawSkip
			}
		}
	}
	return state, i, lastSafe
}

// job is one chunk of whole CSV lines awaiting a worker.
type job struct {
	data []byte
	out  chan parsedChunk
}

// parsedChunk is a worker's output for one chunk, or the reader's
// terminal I/O error. Positions inside err (a *PosError, if any) are
// chunk-relative; lines and bytes let the consumer rebase them and keep
// a running stream position.
type parsedChunk struct {
	recs  []Record
	stats SkipStats
	rows  int64 // data rows observed in the chunk, skipped included
	lines int64 // physical lines in the chunk
	bytes int64 // chunk payload size
	err   error
}

// ParallelCSVSource is an order-preserving parallel reader over the CSV
// format written by WriteCSV / CSVWriter. It yields the same records
// with the same malformed-row skip counts as the Scanner, in the same
// order, for any worker count. Not safe for concurrent use by
// multiple consumers.
//
// Error-policy granularity: PolicyFailFast stops exactly at the first
// malformed row (every good record before it is delivered, none after);
// PolicyBudget is evaluated once per consumed chunk, so the stream ends
// within one chunk of the serial trip point, with all of that chunk's
// records delivered first.
type ParallelCSVSource struct {
	order     chan chan parsedChunk
	jobs      chan job
	done      chan struct{}
	chunkSize int

	ctx     context.Context
	ctxDone <-chan struct{}
	policy  ErrorPolicy

	cur        []Record
	pos        int
	stats      SkipStats
	rows       int64
	baseLine   int64 // physical lines consumed through prior chunks (header included)
	baseOffset int64 // bytes consumed through prior chunks (header included)
	pendingErr error // terminal error to surface once cur is drained
	err        error
	closed     bool

	bufPool sync.Pool
	recPool sync.Pool
}

// NewParallelCSVSource wraps r, reads and checks the header row, and
// starts the chunk reader plus workers parse workers (workers <= 0 means
// GOMAXPROCS). Call Close to release the goroutines if the stream is
// abandoned before io.EOF or an error.
func NewParallelCSVSource(r io.Reader, workers int) (*ParallelCSVSource, error) {
	return newParallelCSVSourceOpts(context.Background(), r, workers, parallelChunkSize, ErrorPolicy{})
}

// newParallelCSVSourceOpts is the constructor behind NewParallelCSVSource
// and the parallel arm of NewIngestSourceContext. ctx is observed by the
// chunk reader, the dispatch hand-off and the consumer, all at chunk
// granularity; after cancellation NextBatch returns ctx.Err() and all
// background goroutines drain. The retry part of the policy is ignored
// here — NewIngestSourceContext wraps the reader to retry transient I/O
// errors. chunkSize is a parameter so tests can force many tiny chunks
// through small inputs.
func newParallelCSVSourceOpts(ctx context.Context, r io.Reader, workers, chunkSize int, policy ErrorPolicy) (*ParallelCSVSource, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The serial scanner consumes the header (with full CSV semantics —
	// a quoted header field may span lines) and leaves the rest of its
	// read buffer as the first bytes of the chunk stream.
	sc, err := NewScanner(r)
	if err != nil {
		return nil, err
	}
	pending := append([]byte(nil), sc.buf[sc.start:sc.end]...)
	src := r
	if sc.readErr != nil {
		// The header scanner latched a read error that arrived together
		// with data: the chunk reader must surface it after the buffered
		// records, exactly as the serial Scanner would.
		src = errorReader{err: sc.readErr}
	}

	p := &ParallelCSVSource{
		order:      make(chan chan parsedChunk, 2*workers),
		jobs:       make(chan job, workers),
		done:       make(chan struct{}),
		chunkSize:  chunkSize,
		ctx:        ctx,
		ctxDone:    ctx.Done(),
		policy:     policy,
		baseLine:   sc.line,   // lines the header occupied
		baseOffset: sc.offset, // bytes the header occupied
	}
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	go p.readChunks(src, pending, sc.eof)
	return p, nil
}

// errorReader replays a latched read error.
type errorReader struct {
	err error
}

func (r errorReader) Read([]byte) (int, error) { return 0, r.err }

// readChunks assembles record-aligned chunks and dispatches them to the
// workers in input order, converting a chunker panic into an ordered
// error chunk instead of crashing the process.
func (p *ParallelCSVSource) readChunks(r io.Reader, pending []byte, eof bool) {
	defer close(p.order)
	defer close(p.jobs)
	if err := panicsafe.Call(func() error {
		p.chunkLoop(r, pending, eof)
		return nil
	}); err != nil {
		errCh := make(chan parsedChunk, 1)
		errCh <- parsedChunk{err: err}
		select {
		case p.order <- errCh:
		case <-p.done:
		case <-p.ctxDone:
		}
	}
}

// chunkLoop is the chunk reader's body; it returns when the input is
// exhausted, an I/O error has been surfaced, the source was closed, or
// the context was cancelled.
func (p *ParallelCSVSource) chunkLoop(r io.Reader, pending []byte, eof bool) {
	// acc always starts at a record boundary. state is the quoting state
	// machine's position, scanned the prefix of acc already examined,
	// and lastSafe the index just past the last record-boundary newline.
	acc := p.getBuf()
	acc = append(acc, pending...)
	var (
		state    = boundaryFieldStart
		scanned  int
		lastSafe int
	)
	rescan := func() {
		var adv int
		state, adv, lastSafe = scanBoundaries(acc[scanned:], state, lastSafe, scanned)
		scanned += adv
	}

	for {
		for !eof && len(acc) < cap(acc) {
			if p.ctxDone != nil && p.ctx.Err() != nil {
				return
			}
			n, err := r.Read(acc[len(acc):cap(acc)])
			acc = acc[:len(acc)+n]
			if err == io.EOF {
				eof = true
			} else if err != nil {
				// Flush the complete records read so far, then surface
				// the I/O error in order, exactly once. The consumer
				// wraps it with the stream position.
				rescan()
				if lastSafe > 0 {
					p.dispatch(acc[:lastSafe])
				}
				errCh := make(chan parsedChunk, 1)
				errCh <- parsedChunk{err: err}
				select {
				case p.order <- errCh:
				case <-p.done:
				case <-p.ctxDone:
				}
				return
			}
		}
		rescan()
		if eof {
			// Final chunk: may end mid-line; the chunk scanner applies
			// the end-of-input CSV semantics (truncated final line,
			// trailing \r, unterminated quote) because this genuinely is
			// the end of the stream.
			if len(acc) > 0 {
				p.dispatch(acc)
			}
			return
		}
		if lastSafe == 0 {
			// A single record larger than the chunk: grow and read on.
			bigger := make([]byte, len(acc), 2*cap(acc))
			copy(bigger, acc)
			acc = bigger
			continue
		}
		next := p.getBuf()
		next = append(next, acc[lastSafe:]...)
		if !p.dispatch(acc[:lastSafe]) {
			return
		}
		acc = next
		scanned = len(acc)
		lastSafe = 0
	}
}

// dispatch hands one chunk to the workers, keeping its result slot in
// the order queue. It reports false when the source was closed or
// cancelled.
func (p *ParallelCSVSource) dispatch(data []byte) bool {
	ch := make(chan parsedChunk, 1)
	select {
	case p.order <- ch:
	case <-p.done:
		return false
	case <-p.ctxDone:
		return false
	}
	select {
	case p.jobs <- job{data: data, out: ch}:
	case <-p.done:
		return false
	case <-p.ctxDone:
		return false
	}
	return true
}

// worker parses chunks with a private zero-allocation scanner whose
// scratch buffers and address intern table persist across chunks. A
// panic while parsing becomes the chunk's error instead of crashing the
// process.
func (p *ParallelCSVSource) worker() {
	sc := newChunkScanner()
	if p.policy.Mode == PolicyFailFast {
		// Chunk-relative fail-fast: the scanner stops at the first bad
		// row with a chunk-relative position the consumer rebases; the
		// records before it are delivered, matching serial semantics
		// exactly. Budget mode stays chunk-side Skip — the budget is
		// global and applied by the consumer.
		sc.policy.Mode = PolicyFailFast
	}
	for j := range p.jobs {
		var pc parsedChunk
		if err := panicsafe.Call(func() error {
			sc.resetBytes(j.data)
			recs := p.getRecs()
			for {
				if len(recs) == cap(recs) {
					recs = append(recs, Record{})[:len(recs)]
				}
				n, err := sc.NextBatch(recs[len(recs):cap(recs)])
				recs = recs[:len(recs)+n]
				if err != nil {
					if !errors.Is(err, io.EOF) {
						// Fail-fast rejection: a bytes-mode scanner has
						// no reader to fail any other way.
						pc.err = err
					}
					break
				}
			}
			pc.recs = recs
			pc.stats = sc.stats
			pc.rows = sc.rows
			pc.lines = sc.line
			pc.bytes = int64(len(j.data))
			return nil
		}); err != nil {
			pc = parsedChunk{err: err}
		}
		p.putBuf(j.data)
		// The send never blocks: out is buffered and owned by this chunk.
		j.out <- pc
	}
}

// rebase turns a chunk-relative error into a stream-positioned one.
// Panic and context errors pass through untouched; raw I/O errors are
// positioned at the first unparsed line.
func (p *ParallelCSVSource) rebase(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	var ps *panicsafe.Error
	if errors.As(err, &ps) {
		return err
	}
	var pe *PosError
	if errors.As(err, &pe) {
		return fmt.Errorf("trace: %w", &PosError{
			Line:   p.baseLine + pe.Line,
			Offset: p.baseOffset + pe.Offset,
			Err:    pe.Err,
		})
	}
	return fmt.Errorf("trace: reading row: %w", &PosError{
		Line:   p.baseLine + 1,
		Offset: p.baseOffset,
		Err:    err,
	})
}

// advance releases the consumed batch and takes the next chunk's result
// in input order, folding its stats into the stream totals and applying
// the error budget.
func (p *ParallelCSVSource) advance() error {
	if p.cur != nil {
		p.putRecs(p.cur)
		p.cur = nil
	}
	p.pos = 0
	if p.pendingErr != nil {
		return p.pendingErr
	}
	if p.ctxDone != nil {
		if err := p.ctx.Err(); err != nil {
			return err
		}
	}
	var (
		ch chan parsedChunk
		ok bool
	)
	select {
	case ch, ok = <-p.order:
	case <-p.ctxDone:
		return p.ctx.Err()
	}
	if !ok {
		return io.EOF
	}
	var c parsedChunk
	select {
	case c = <-ch:
	case <-p.ctxDone:
		return p.ctx.Err()
	}
	p.stats.Add(c.stats)
	p.rows += c.rows
	var err error
	switch {
	case c.err != nil:
		err = p.rebase(c.err)
	case p.policy.exceeded(p.stats.SkippedRows()):
		err = fmt.Errorf("trace: %w: %d of %d rows dropped (%v)",
			ErrBudgetExceeded, p.stats.SkippedRows(), p.rows, p.stats)
	}
	p.baseLine += c.lines
	p.baseOffset += c.bytes
	if err != nil {
		if len(c.recs) > 0 {
			// Deliver the good records ahead of the failure point first.
			p.cur = c.recs
			p.pendingErr = err
			return nil
		}
		return err
	}
	p.cur = c.recs
	return nil
}

// NextBatch copies up to len(dst) records in input order; see Source
// for the contract. The terminal error is sticky.
func (p *ParallelCSVSource) NextBatch(dst []Record) (int, error) {
	if p.err != nil {
		return 0, p.err
	}
	n := 0
	for n < len(dst) {
		if p.pos >= len(p.cur) {
			if err := p.advance(); err != nil {
				p.err = err
				return n, err
			}
			continue
		}
		m := copy(dst[n:], p.cur[p.pos:])
		n += m
		p.pos += m
	}
	return n, nil
}

// Stats returns the per-category skip accounting for the chunks consumed
// so far; after the stream is drained it matches the serial Scanner's
// stats for the whole input.
func (p *ParallelCSVSource) Stats() SkipStats { return p.stats }

// Close stops the background reader and workers. Subsequent calls
// return io.EOF (or the earlier terminal error). Close is idempotent
// and unnecessary once NextBatch returned a non-nil error; it
// does not interrupt a Read blocked in the underlying reader.
func (p *ParallelCSVSource) Close() {
	if p.closed {
		return
	}
	p.closed = true
	close(p.done)
	if p.err == nil {
		p.err = io.EOF
	}
}

func (p *ParallelCSVSource) getBuf() []byte {
	if v := p.bufPool.Get(); v != nil {
		return (*v.(*[]byte))[:0]
	}
	return make([]byte, 0, p.chunkSize)
}

func (p *ParallelCSVSource) putBuf(b []byte) {
	b = b[:0]
	p.bufPool.Put(&b)
}

func (p *ParallelCSVSource) getRecs() []Record {
	if v := p.recPool.Get(); v != nil {
		return (*v.(*[]Record))[:0]
	}
	return make([]Record, 0, chunkRecordsCap)
}

func (p *ParallelCSVSource) putRecs(r []Record) {
	r = r[:0]
	p.recPool.Put(&r)
}
