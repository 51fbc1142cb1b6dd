package trace

import (
	"errors"
	"io"
)

// Source is a pull-based stream of record batches: the unit of
// composition of the ingestion layer. NextBatch fills dst with up to
// len(dst) records and returns how many were produced; dst[:n] is always
// valid. A non-nil error is terminal and may accompany the stream's
// final records: io.EOF for the normal end of stream, anything else a
// producer failure. After a non-nil error a consumer must not use the
// source again expecting records: every source in this package latches
// its terminal error and repeats it on each later call. Calling NextBatch
// with an empty dst makes no progress: it returns (0, nil), or the
// terminal error from a source already at its end.
//
// One consumer pulls again on purpose: the serve supervisor restarts its
// ingest loop after a non-EOF error and re-pulls the same source. A
// source handed to it must answer that pull in one of two ways — repeat
// the error, as the sources here do (the restart budget burns down and
// the loop is declared dead), or, if it is a live feed that can reconnect,
// resume at the first record it has not handed out yet. It must not
// panic, skip or replay records because of the earlier failure.
//
// Sources let the pipeline process traces far larger than memory: the
// CSV readers, the streaming cleaner and the streaming vectorizer all
// speak Source, so a trace flows from disk (or the synthetic generator)
// to per-tower traffic vectors a batch at a time, and at millions of
// records per second the interface call is amortised over thousands of
// records.
type Source interface {
	NextBatch(dst []Record) (int, error)
}

// SourceFunc adapts a one-record-at-a-time function to Source: the one
// scalar-to-batch adapter, for producers (and test fakes) that have no
// cheaper way to fill a slice.
type SourceFunc func() (Record, error)

// NextBatch fills dst one call of f at a time.
func (f SourceFunc) NextBatch(dst []Record) (int, error) {
	for i := range dst {
		r, err := f()
		if err != nil {
			return i, err
		}
		dst[i] = r
	}
	return len(dst), nil
}

// sliceSource streams an in-memory record slice.
type sliceSource struct {
	records []Record
	pos     int
}

// SliceSource returns a Source that yields the records in order.
func SliceSource(records []Record) Source {
	return &sliceSource{records: records}
}

// NextBatch copies the next run of records into dst.
func (s *sliceSource) NextBatch(dst []Record) (int, error) {
	if s.pos >= len(s.records) {
		return 0, io.EOF
	}
	n := copy(dst, s.records[s.pos:])
	s.pos += n
	return n, nil
}

// SizeHint reports exactly how many records remain.
func (s *sliceSource) SizeHint() int { return len(s.records) - s.pos }

// Collect drains the source into a slice. Prefer streaming consumers for
// large traces; Collect exists for tests and small inputs. Sources
// implementing SizeHinter get their slice preallocated instead of grown
// from nil.
func Collect(src Source) ([]Record, error) {
	var out []Record
	if h, ok := src.(SizeHinter); ok {
		if n := h.SizeHint(); n > 0 {
			out = make([]Record, 0, n)
		}
	}
	bp := GetBatch()
	defer PutBatch(bp)
	for {
		n, err := src.NextBatch(*bp)
		out = append(out, (*bp)[:n]...)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return nil, err
		}
	}
}
