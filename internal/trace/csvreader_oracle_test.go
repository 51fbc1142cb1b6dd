package trace

// csvreader_oracle_test.go holds the encoding/csv + strconv + time.Parse
// reader that Scanner and ParallelCSVSource replaced, verbatim, as the
// oracle their equivalence tests and FuzzScanRecords compare against.

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"
)

// CSVReader is a streaming Source over the CSV format written by
// WriteCSV / CSVWriter. Structurally broken rows (*csv.ParseError) and
// rows whose fields fail to parse or validate are skipped and counted;
// I/O errors from the underlying reader abort the stream.
type CSVReader struct {
	cr    *csv.Reader
	stats SkipStats
	line  int64 // physical lines consumed; best-effort for multi-line rows
	err   error
}

// NewCSVReader wraps r, reads and checks the header row, and returns a
// Source yielding one record per data row.
func NewCSVReader(r io.Reader) (*CSVReader, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if len(header) != len(csvHeader) || header[0] != csvHeader[0] {
		return nil, fmt.Errorf("trace: unexpected header %v", header)
	}
	return &CSVReader{cr: cr, line: 1}, nil
}

// Next returns the next well-formed record. Malformed rows are skipped
// (see Skipped); the error is io.EOF at end of input, or the underlying
// I/O error, both sticky. I/O errors are wrapped in a PosError carrying
// the line number and byte offset at which the read failed, so a corrupt
// region of a multi-gigabyte trace is locatable from the error alone.
func (r *CSVReader) Next() (Record, error) {
	if r.err != nil {
		return Record{}, r.err
	}
	for {
		row, err := r.cr.Read()
		if err != nil {
			var perr *csv.ParseError
			if errors.As(err, &perr) {
				// Structurally broken CSV row: count and continue.
				// ParseError tracks physical lines exactly; resync so
				// multi-line rows before this point don't skew positions.
				r.stats.MalformedRows++
				r.line = int64(perr.Line)
				continue
			}
			if !errors.Is(err, io.EOF) {
				err = fmt.Errorf("trace: reading row: %w", &PosError{
					Line:   r.line + 1,
					Offset: r.cr.InputOffset(),
					Err:    err,
				})
			}
			r.err = err
			return Record{}, err
		}
		r.line++
		rec, cat, _ := parseRowCat(row)
		if cat != skipNone {
			r.stats.count(cat)
			continue
		}
		return rec, nil
	}
}

// Skipped returns the number of malformed rows skipped so far.
func (r *CSVReader) Skipped() int { return int(r.stats.SkippedRows()) }

// Stats returns the per-category skip accounting so far.
func (r *CSVReader) Stats() SkipStats { return r.stats }

func parseRow(row []string) (Record, error) {
	rec, _, err := parseRowCat(row)
	return rec, err
}

// parseRowCat is parseRow with the drop category attached, feeding the
// per-category SkipStats of CSVReader. Categories mirror the Scanner's
// classification (same field order), so all three ingestion paths report
// identical stats for the same input.
func parseRowCat(row []string) (Record, skipCategory, error) {
	userID, err := strconv.Atoi(row[0])
	if err != nil {
		return Record{}, skipBadField, fmt.Errorf("trace: user id: %w", err)
	}
	start, err := time.Parse(timeLayout, row[1])
	if err != nil {
		return Record{}, skipBadTimestamp, fmt.Errorf("trace: start: %w", err)
	}
	end, err := time.Parse(timeLayout, row[2])
	if err != nil {
		return Record{}, skipBadTimestamp, fmt.Errorf("trace: end: %w", err)
	}
	towerID, err := strconv.Atoi(row[3])
	if err != nil {
		return Record{}, skipBadField, fmt.Errorf("trace: tower id: %w", err)
	}
	bytes, err := strconv.ParseInt(row[5], 10, 64)
	if err != nil {
		return Record{}, skipBadField, fmt.Errorf("trace: bytes: %w", err)
	}
	rec := Record{
		UserID:  userID,
		Start:   start,
		End:     end,
		TowerID: towerID,
		Address: row[4],
		Bytes:   bytes,
		Tech:    Technology(row[6]),
	}
	if err := rec.Validate(); err != nil {
		return Record{}, skipBadField, err
	}
	return rec, skipNone, nil
}

// Validate says why a record is structurally impossible (valid() only
// answers whether): the acceptance rule of the encoding/csv oracle and of
// the cleaner's flat-map oracle.
func (r Record) Validate() error {
	switch {
	case r.valid():
		return nil
	case r.UserID < 0:
		return fmt.Errorf("trace: negative user id %d", r.UserID)
	case r.TowerID < 0:
		return fmt.Errorf("trace: negative tower id %d", r.TowerID)
	case r.Bytes < 0:
		return fmt.Errorf("trace: negative byte count %d", r.Bytes)
	case r.Start.IsZero() || r.End.IsZero():
		return errors.New("trace: zero timestamp")
	case r.End.Before(r.Start):
		return fmt.Errorf("trace: end %v before start %v", r.End, r.Start)
	default:
		return fmt.Errorf("trace: unknown technology %q", r.Tech)
	}
}
