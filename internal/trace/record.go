// Package trace models the raw cellular connection logs (CDR-style
// records) and implements the log cleaning of the paper's Section 2.2:
// eliminating redundant and conflicting logs. Tower metadata, locations
// included, is read from towers.csv (ReadTowersCSV).
//
// Ingestion is batched and allocation-free. Records move through one
// interface, Source (NextBatch), and each stage has one entry point:
// NewIngestSourceContext reads CSV — the byte-level Scanner for one
// worker, the order-preserving parallel chunk parser (ParallelCSVSource)
// for more, both equivalence-tested against an encoding/csv oracle kept
// with the tests — CleanSource filters a source through the
// streaming Cleaner, ReadAhead pulls one on its own goroutine a fixed two
// batches ahead of whoever consumes it, and ForEachBatch drains one. The
// write path (WriteCSV, CSVWriter, WriteTowersCSV) is symmetric,
// serialising rows into reused buffers.
//
// Fault tolerance: NewIngestSourceContext takes an ErrorPolicy that
// selects skip / fail-fast / budget handling of malformed rows, with
// per-category skip accounting (SkipStats) and bounded retry of transient
// read errors (RetryPolicy); NewScanner and NewParallelCSVSource are the
// two readers with the skip-everything policy and no cancellation.
// WithContext is the one place a source pipeline observes cancellation:
// it makes any source check ctx before every pull. Terminal errors from
// the readers carry the failing row's line number and byte offset via
// *PosError.
package trace

import (
	"io"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"repro/internal/geo"
)

// Technology is the radio access technology of a connection.
type Technology string

// Supported technologies.
const (
	Tech3G  Technology = "3G"
	TechLTE Technology = "LTE"
)

// Record is a single connection log entry, mirroring the fields of the
// paper's dataset: anonymised device ID, start and end time of the data
// connection, base-station ID and address, and the bytes transferred.
type Record struct {
	UserID  int
	Start   time.Time
	End     time.Time
	TowerID int
	Address string
	Bytes   int64
	Tech    Technology
}

// valid reports whether the record holds no structurally impossible value.
// It builds no error: the cleaner asks once per record and only counts the
// answer (the tests' Record.Validate says why, for the oracles).
func (r *Record) valid() bool {
	return r.UserID >= 0 && r.TowerID >= 0 && r.Bytes >= 0 &&
		!r.Start.IsZero() && !r.End.IsZero() && !r.End.Before(r.Start) &&
		(r.Tech == Tech3G || r.Tech == TechLTE)
}

const timeLayout = time.RFC3339

// csvHeader is the column layout of the trace CSV format.
var csvHeader = []string{"user_id", "start", "end", "tower_id", "address", "bytes", "tech"}

// csvHeaderLine is the serialised header row.
const csvHeaderLine = "user_id,start,end,tower_id,address,bytes,tech\n"

// WriteCSV writes the records to w as CSV with a header row. Rows are
// serialised with time.AppendFormat / strconv.Append* into one reused
// buffer — byte-identical output to the encoding/csv path it replaces,
// without the per-field string churn.
func WriteCSV(w io.Writer, records []Record) error {
	cw := NewCSVWriter(w)
	if err := cw.WriteBatch(records); err != nil {
		return err
	}
	if len(records) == 0 {
		// Preserve the historical behaviour of emitting the header even
		// for an empty trace.
		if err := cw.writeHeader(); err != nil {
			return err
		}
	}
	return cw.Flush()
}

// fieldNeedsQuotes mirrors encoding/csv's quoting rule (Comma == ',',
// UseCRLF == false) so the append writers emit byte-identical files.
func fieldNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` {
		// Postgres COPY protocol end-of-data marker, quoted by csv.Writer.
		return true
	}
	for i := 0; i < len(field); i++ {
		switch field[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r)
}

// appendCSVField appends one CSV field, quoting exactly when csv.Writer
// would and doubling embedded quotes.
func appendCSVField(buf []byte, field string) []byte {
	if !fieldNeedsQuotes(field) {
		return append(buf, field...)
	}
	buf = append(buf, '"')
	for {
		i := strings.IndexByte(field, '"')
		if i < 0 {
			buf = append(buf, field...)
			break
		}
		buf = append(buf, field[:i+1]...)
		buf = append(buf, '"')
		field = field[i+1:]
	}
	return append(buf, '"')
}

// appendRecord appends one serialised record row (with trailing newline)
// to buf. Numeric and timestamp columns never need quoting; the address
// and technology columns go through the csv-compatible quoter.
func appendRecord(buf []byte, r Record) []byte {
	buf = strconv.AppendInt(buf, int64(r.UserID), 10)
	buf = append(buf, ',')
	buf = r.Start.AppendFormat(buf, timeLayout)
	buf = append(buf, ',')
	buf = r.End.AppendFormat(buf, timeLayout)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.TowerID), 10)
	buf = append(buf, ',')
	buf = appendCSVField(buf, r.Address)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, r.Bytes, 10)
	buf = append(buf, ',')
	buf = appendCSVField(buf, string(r.Tech))
	return append(buf, '\n')
}

// TowerInfo is the per-tower metadata of towers.csv: the base-station
// identifier, its address and its coordinates.
type TowerInfo struct {
	TowerID  int
	Address  string
	Location geo.Point
}
