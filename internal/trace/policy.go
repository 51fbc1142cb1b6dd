package trace

// policy.go defines the ingestion error policy: what an IngestSource
// does when it meets a row it cannot turn into a Record. Historically
// every reader silently skipped malformed rows and exposed a bare count;
// a production ingest needs the choice to be explicit — fail on the
// first bad row (a schema change upstream), tolerate everything (ad-hoc
// exploration), or tolerate a bounded amount (the steady state: CDR
// exports are noisy, but a sudden flood of garbage should stop the run,
// not silently hollow out the dataset). The skip accounting is
// structured per category so the run footer can say *why* rows were
// dropped, not just how many.

import (
	"errors"
	"fmt"
)

// PolicyMode selects how an ingestion source treats rows that fail to
// parse or validate.
type PolicyMode uint8

const (
	// PolicySkip drops and counts malformed rows — the historical
	// behaviour and the zero value.
	PolicySkip PolicyMode = iota
	// PolicyFailFast aborts the stream on the first malformed row with a
	// positioned error (line + byte offset) identifying it.
	PolicyFailFast
	// PolicyBudget drops and counts malformed rows until the Budget is
	// exceeded, then aborts the stream with ErrBudgetExceeded.
	PolicyBudget
)

// String names the mode for logs and error text.
func (m PolicyMode) String() string {
	switch m {
	case PolicySkip:
		return "skip"
	case PolicyFailFast:
		return "fail-fast"
	case PolicyBudget:
		return "budget"
	default:
		return fmt.Sprintf("policy(%d)", uint8(m))
	}
}

// Budget bounds how many malformed rows PolicyBudget tolerates. The zero
// Budget tolerates everything, like PolicySkip.
type Budget struct {
	// MaxRows is the largest acceptable number of skipped rows; the
	// stream aborts on the row that exceeds it. <= 0 means unlimited.
	MaxRows int
}

// ErrorPolicy configures an ingestion source's tolerance for malformed
// rows and transient I/O errors. The zero value is the historical
// behaviour: skip and count bad rows, never retry reads.
type ErrorPolicy struct {
	// Mode selects skip / fail-fast / budget handling of bad rows.
	Mode PolicyMode
	// Budget bounds the tolerated bad rows when Mode is PolicyBudget.
	Budget Budget
	// Retry enables bounded retry-with-backoff for transient errors from
	// the underlying reader (see RetryPolicy); the zero value disables
	// retrying.
	Retry RetryPolicy
}

// exceeded reports whether the accumulated skip count breaks the budget.
func (p ErrorPolicy) exceeded(skipped int64) bool {
	return p.Mode == PolicyBudget && p.Budget.MaxRows > 0 && skipped > int64(p.Budget.MaxRows)
}

// ErrBudgetExceeded is wrapped into the terminal error of a source whose
// PolicyBudget ran out of tolerance.
var ErrBudgetExceeded = errors.New("ingestion error budget exceeded")

// ErrRowRejected is wrapped into the terminal error of a PolicyFailFast
// source that met a malformed row.
var ErrRowRejected = errors.New("row rejected by fail-fast ingestion policy")

// SkipStats breaks the dropped-row accounting of an ingestion source
// down by cause; SkippedRows is the total.
type SkipStats struct {
	// MalformedRows counts structurally broken CSV rows: quoting errors,
	// wrong field counts — rows encoding/csv itself would reject.
	MalformedRows int64
	// BadTimestamps counts well-formed rows whose start or end column
	// failed to parse as a timestamp.
	BadTimestamps int64
	// BadFields counts well-formed rows with an unparseable numeric
	// column, an unknown radio technology, or values failing Record
	// validation (negative counts, reversed intervals).
	BadFields int64
	// UnknownTowers counts records dropped downstream because their
	// tower has no usable metadata; ingestion readers leave it zero.
	UnknownTowers int64
	// IORetries counts transient read errors absorbed by retry-with-
	// backoff (see RetryPolicy). Retried reads drop no rows; the counter
	// exists so a degrading input device is visible before it fails hard.
	IORetries int64
}

// SkippedRows is the total number of dropped rows across all categories.
func (s SkipStats) SkippedRows() int64 {
	return s.MalformedRows + s.BadTimestamps + s.BadFields + s.UnknownTowers
}

// Add accumulates o into s.
func (s *SkipStats) Add(o SkipStats) {
	s.MalformedRows += o.MalformedRows
	s.BadTimestamps += o.BadTimestamps
	s.BadFields += o.BadFields
	s.UnknownTowers += o.UnknownTowers
	s.IORetries += o.IORetries
}

// String renders the non-zero counters, for error text and log lines.
func (s SkipStats) String() string {
	return fmt.Sprintf("malformed=%d bad_timestamp=%d bad_field=%d unknown_tower=%d io_retries=%d",
		s.MalformedRows, s.BadTimestamps, s.BadFields, s.UnknownTowers, s.IORetries)
}

// skipCategory classifies why one row was dropped; skipNone means the
// row produced a record.
type skipCategory uint8

const (
	skipNone skipCategory = iota
	skipMalformed
	skipBadTimestamp
	skipBadField
)

// String names the category for positioned fail-fast errors.
func (c skipCategory) String() string {
	switch c {
	case skipMalformed:
		return "malformed CSV row"
	case skipBadTimestamp:
		return "bad timestamp"
	case skipBadField:
		return "bad field"
	default:
		return "ok"
	}
}

// count bumps the counter for one dropped row of category c.
func (s *SkipStats) count(c skipCategory) {
	switch c {
	case skipMalformed:
		s.MalformedRows++
	case skipBadTimestamp:
		s.BadTimestamps++
	case skipBadField:
		s.BadFields++
	}
}

// PosError locates an ingestion error in the input stream: the 1-based
// physical line and the byte offset at which the offending row (or the
// failed read) starts. The header row is line 1. It wraps the underlying
// cause for errors.Is / errors.As.
//
// The byte-level Scanner and ParallelCSVSource count physical lines
// exactly; the encoding/csv-backed CSVReader the tests keep as their
// oracle is best-effort for quoted rows spanning physical lines (each
// record counts as one line).
type PosError struct {
	// Line is the 1-based line number of the failing row's first line.
	Line int64
	// Offset is the byte offset of that line's start, or of the stream
	// position at which a failed read surfaced.
	Offset int64
	// Err is the underlying cause.
	Err error
}

// Error formats the position ahead of the cause.
func (e *PosError) Error() string {
	return fmt.Sprintf("line %d (byte offset %d): %v", e.Line, e.Offset, e.Err)
}

// Unwrap exposes the cause to errors.Is and errors.As.
func (e *PosError) Unwrap() error { return e.Err }
