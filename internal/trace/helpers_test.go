package trace

// helpers_test.go keeps, as one-line test helpers, the wrappers the
// ingestion API shed when Source became batch-only: each had no caller
// outside the tests, and the tests that used one now reach the surviving
// entry point through its old body.

import (
	"context"
	"errors"
	"io"
)

// next pulls one record from src, the scalar pull of the deleted Next
// methods. Records that arrive together with the terminal error are
// returned first; the (sticky) error follows on the next call.
func next(src Source) (Record, error) {
	var one [1]Record
	for {
		n, err := src.NextBatch(one[:])
		if n == 1 {
			return one[0], nil
		}
		if err != nil {
			return Record{}, err
		}
	}
}

// forEach drains src one record at a time.
func forEach(src Source, fn func(Record) error) error {
	for {
		r, err := next(src)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(r); err != nil {
			return err
		}
	}
}

// readCSV materialises a whole CSV trace and its skipped-row count.
func readCSV(r io.Reader) ([]Record, int, error) {
	sc, err := NewScanner(r)
	if err != nil {
		return nil, 0, err
	}
	records, err := Collect(sc)
	return records, int(sc.Stats().SkippedRows()), err
}

func cleanSource(src Source) *CleanedSource { return CleanSourceWindow(src, 0) }

func newIngestSource(r io.Reader, workers int) (IngestSource, error) {
	return NewIngestSourceContext(context.Background(), r, workers, ErrorPolicy{})
}
